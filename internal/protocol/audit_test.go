package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/predictor"
)

// refCheckCoherence is the two-sweep audit that CheckCoherence's counting
// audit replaced, kept here, and only here, as its reference: a holder-side
// sweep of every L2 array looks each valid copy up in its home slice, then
// a directory-side walk probes the registered holders of every idle entry.
func refCheckCoherence(s *System) (hard, soft []string) {
	var hardV, softV []dirViol
	for _, n := range s.Nodes {
		id := n.self
		n.l2.ForEachValid(func(l arch.LineAddr, st cache.State) {
			e := s.Dirs[s.Cfg.Home(l)].lookup(l)
			switch {
			case e == nil || e.state == dirU:
				hardV = append(hardV, dirViol{l, id,
					fmt.Sprintf("line %#x: dir U but node %d has %v", uint64(l), id, st)})
			case e.state == dirE:
				if id != e.owner.id() {
					hardV = append(hardV, dirViol{l, id,
						fmt.Sprintf("line %#x: dir E (owner %d) but node %d has %v", uint64(l), e.owner, id, st)})
				} else if st == cache.Shared {
					hardV = append(hardV, dirViol{l, id,
						fmt.Sprintf("line %#x: dir E owner %d has %v", uint64(l), id, st)})
				}
			case e.state == dirS:
				if !e.sharers.Contains(id) {
					hardV = append(hardV, dirViol{l, id,
						fmt.Sprintf("line %#x: dir S %v but node %d has %v", uint64(l), e.sharers, id, st)})
				} else if st == cache.Modified || st == cache.Exclusive {
					hardV = append(hardV, dirViol{l, id,
						fmt.Sprintf("line %#x: dir S sharer %d has %v", uint64(l), id, st)})
				}
			}
		})
	}
	for _, d := range s.Dirs {
		for x := uint32(1); x <= uint32(d.used); x++ {
			e := d.entry(x)
			l := e.line
			if e.busy || e.queued {
				hardV = append(hardV, dirViol{l, arch.None,
					fmt.Sprintf("line %#x: busy or queued at quiescence", uint64(l))})
				continue
			}
			switch e.state {
			case dirE:
				if !s.Nodes[e.owner].l2.Peek(l).Valid() {
					softV = append(softV, dirViol{l, e.owner.id(),
						fmt.Sprintf("line %#x: dir E owner %d has no copy", uint64(l), e.owner)})
				}
			case dirS:
				e.sharers.ForEach(func(nid arch.NodeID) {
					if !s.Nodes[nid].l2.Peek(l).Valid() {
						softV = append(softV, dirViol{l, nid,
							fmt.Sprintf("line %#x: dir S sharer %d has no copy", uint64(l), nid)})
					}
				})
			case dirU:
			}
		}
	}
	return renderViols(hardV), renderViols(softV)
}

// plantedLine is the k-th test line homed at slice home on the 2x2 test
// machine, clear of the lines the traffic driver touches.
func plantedLine(home arch.NodeID, k int) arch.LineAddr {
	return arch.LineAddr(0x1000 + 4*k + int(home))
}

// plantDir overwrites l's entry in slice d: state st, registering holders
// as the owner (E) or the sharers (S).
func plantDir(sys *System, d arch.NodeID, l arch.LineAddr, st dirState, holders ...arch.NodeID) *dirLine {
	e := sys.Dirs[d].line(l)
	e.state, e.owner, e.sharers, e.fwd = st, noNode, arch.EmptySet, noNode
	switch st {
	case dirE:
		e.owner = dirNode(holders[0])
	case dirS:
		e.sharers = arch.SetOf(holders...)
	case dirU:
	}
	return e
}

// plantCopy gives node n a copy of l in state st (Invalid drops it).
func plantCopy(sys *System, n arch.NodeID, l arch.LineAddr, st cache.State) {
	if st == cache.Invalid {
		sys.Nodes[n].l2.Invalidate(l)
		return
	}
	sys.Nodes[n].l2.Insert(l, st)
}

// auditCount returns the counting audit's two sides: the valid copies the
// home entries register and the resident L2 lines.
func auditCount(sys *System) (registered, resident int) {
	var a audit
	for _, d := range sys.Dirs {
		d.checkDirSide(&a)
	}
	for _, n := range sys.Nodes {
		resident += n.l2.Occupancy()
	}
	return a.registered, resident
}

// TestAuditPlantedViolations plants each violation class, one at a time,
// into a coherent system and requires CheckCoherence to return exactly the
// hard and soft lists of the two-sweep reference audit, including the
// planted violation. Each class is planted on a system holding a few
// directory-made lines and on one after random traffic under a chaos
// predictor (whose residue adds soft violations of its own).
func TestAuditPlantedViolations(t *testing.T) {
	type want struct{ hard, soft []string }
	cases := []struct {
		name  string
		plant func(sys *System)
		want  want
	}{
		{"holder of a U line", func(sys *System) {
			l := plantedLine(0, 0)
			plantDir(sys, 0, l, dirU)
			plantCopy(sys, 1, l, cache.Shared)
		}, want{hard: []string{"dir U but node 1 has S"}}},
		{"holder of an absent line", func(sys *System) {
			plantCopy(sys, 2, plantedLine(1, 1), cache.Exclusive)
		}, want{hard: []string{"dir U but node 2 has E"}}},
		{"E non-owner", func(sys *System) {
			l := plantedLine(2, 2)
			plantDir(sys, 2, l, dirE, 0)
			plantCopy(sys, 0, l, cache.Modified)
			plantCopy(sys, 3, l, cache.Shared)
		}, want{hard: []string{"dir E (owner 0) but node 3 has S"}}},
		{"E owner in S", func(sys *System) {
			l := plantedLine(3, 3)
			plantDir(sys, 3, l, dirE, 1)
			plantCopy(sys, 1, l, cache.Shared)
		}, want{hard: []string{"dir E owner 1 has S"}}},
		{"S non-sharer", func(sys *System) {
			l := plantedLine(0, 4)
			plantDir(sys, 0, l, dirS, 0, 1)
			plantCopy(sys, 0, l, cache.Shared)
			plantCopy(sys, 1, l, cache.Forward)
			plantCopy(sys, 2, l, cache.Shared)
		}, want{hard: []string{"but node 2 has S"}}},
		{"S sharer in M", func(sys *System) {
			l := plantedLine(1, 5)
			plantDir(sys, 1, l, dirS, 0, 1)
			plantCopy(sys, 0, l, cache.Shared)
			plantCopy(sys, 1, l, cache.Modified)
		}, want{hard: []string{"dir S sharer 1 has M"}}},
		{"S sharer in E", func(sys *System) {
			l := plantedLine(1, 6)
			plantDir(sys, 1, l, dirS, 2, 3)
			plantCopy(sys, 2, l, cache.Exclusive)
			plantCopy(sys, 3, l, cache.Shared)
		}, want{hard: []string{"dir S sharer 2 has E"}}},
		{"busy line with an owner in S", func(sys *System) {
			l := plantedLine(2, 7)
			plantDir(sys, 2, l, dirE, 0).busy = true
			plantCopy(sys, 0, l, cache.Shared)
		}, want{hard: []string{"busy or queued", "dir E owner 0 has S"}}},
		{"busy line with a stray holder", func(sys *System) {
			l := plantedLine(2, 8)
			plantDir(sys, 2, l, dirE, 3).busy = true
			plantCopy(sys, 1, l, cache.Shared)
		}, want{hard: []string{"busy or queued", "dir E (owner 3) but node 1 has S"}}},
		{"queued line with a sharer in M", func(sys *System) {
			l := plantedLine(3, 9)
			e := plantDir(sys, 3, l, dirS, 1, 2)
			sys.Dirs[3].wait(e, &Msg{Kind: MsgGetS, Src: 0, Dst: 3, Line: l, Requester: 0})
			plantCopy(sys, 1, l, cache.Shared)
			plantCopy(sys, 2, l, cache.Modified)
		}, want{hard: []string{"busy or queued", "dir S sharer 2 has M"}}},
		{"queued line with a stray holder", func(sys *System) {
			l := plantedLine(3, 10)
			e := plantDir(sys, 3, l, dirU)
			sys.Dirs[3].wait(e, &Msg{Kind: MsgGetM, Src: 1, Dst: 3, Line: l, Requester: 1})
			plantCopy(sys, 0, l, cache.Modified)
		}, want{hard: []string{"busy or queued", "dir U but node 0 has M"}}},
		{"E owner with no copy", func(sys *System) {
			l := plantedLine(0, 11)
			plantDir(sys, 0, l, dirE, 3)
			plantCopy(sys, 3, l, cache.Invalid)
		}, want{soft: []string{"dir E owner 3 has no copy"}}},
		{"S sharer with no copy", func(sys *System) {
			l := plantedLine(1, 12)
			plantDir(sys, 1, l, dirS, 1, 2)
			plantCopy(sys, 1, l, cache.Forward)
			plantCopy(sys, 2, l, cache.Invalid)
		}, want{soft: []string{"dir S sharer 2 has no copy"}}},
		{"entry in a non-home slice", func(sys *System) {
			// The holder's state would be forbidden by the entry, but only
			// the home slice's entry counts: the copy is unregistered.
			l := plantedLine(0, 13)
			plantDir(sys, 1, l, dirE, 0)
			plantCopy(sys, 0, l, cache.Shared)
		}, want{hard: []string{"dir U but node 0 has S"}}},
		{"non-home duplicate beside a stray", func(sys *System) {
			// Counting the non-home duplicate of a registered line would
			// cancel the stray copy of another line in the count.
			l, stray := plantedLine(2, 14), plantedLine(2, 15)
			plantDir(sys, 2, l, dirE, 1)
			plantDir(sys, 3, l, dirE, 1)
			plantCopy(sys, 1, l, cache.Modified)
			plantCopy(sys, 0, stray, cache.Shared)
		}, want{hard: []string{"dir U but node 0 has S"}}},
		{"non-home entries busy and stale", func(sys *System) {
			plantDir(sys, 0, plantedLine(3, 16), dirS, 1).busy = true
			plantDir(sys, 1, plantedLine(2, 17), dirE, 2)
		}, want{hard: []string{"busy or queued"}, soft: []string{"dir E owner 2 has no copy"}}},
	}
	bases := []struct {
		name string
		make func(t *testing.T) *System
	}{
		{"clean", func(t *testing.T) *System {
			sim, sys := newTestSystem(t, testConfig(), nil)
			access(t, sim, sys.Nodes[0], 0x40, true)
			access(t, sim, sys.Nodes[1], 0x80, false)
			access(t, sim, sys.Nodes[2], 0x80, false)
			access(t, sim, sys.Nodes[3], 0xc0, false)
			quiesce(t, sim, sys, false)
			return sys
		}},
		{"traffic", func(t *testing.T) *System {
			preds := make([]predictor.Predictor, 4)
			for i := range preds {
				preds[i] = &chaosPred{rng: rand.New(rand.NewSource(int64(i) + 11)), nodes: 4}
			}
			sim, sys := newTestSystem(t, testConfig(), preds)
			completed := 0
			driver(sim, sys, 3, 200, 24, &completed)
			quiesce(t, sim, sys, true)
			return sys
		}},
	}
	for _, b := range bases {
		for _, c := range cases {
			t.Run(b.name+"/"+c.name, func(t *testing.T) {
				sys := b.make(t)
				if reg, res := auditCount(sys); reg != res {
					t.Fatalf("before planting: %d registered copies, %d resident lines", reg, res)
				}
				c.plant(sys)
				hard, soft := sys.CheckCoherence()
				refHard, refSoft := refCheckCoherence(sys)
				if !reflect.DeepEqual(hard, refHard) {
					t.Errorf("hard violations differ from the reference audit:\n got %q\nwant %q", hard, refHard)
				}
				if !reflect.DeepEqual(soft, refSoft) {
					t.Errorf("soft violations differ from the reference audit:\n got %q\nwant %q", soft, refSoft)
				}
				for _, w := range c.want.hard {
					if !containsViol(hard, w) {
						t.Errorf("no hard violation %q in %q", w, hard)
					}
				}
				for _, w := range c.want.soft {
					if !containsViol(soft, w) {
						t.Errorf("no soft violation %q in %q", w, soft)
					}
				}
			})
		}
	}
}

func containsViol(viols []string, sub string) bool {
	for _, v := range viols {
		if strings.Contains(v, sub) {
			return true
		}
	}
	return false
}

// TestAuditCountsMatchAfterTraffic checks the counting argument on real
// runs: at quiescence every resident L2 line is registered by its home
// slice, so CheckCoherence skips the L2 sweep, and its lists equal the
// reference audit's.
func TestAuditCountsMatchAfterTraffic(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		var preds []predictor.Predictor
		if seed%2 == 1 {
			preds = make([]predictor.Predictor, 4)
			for i := range preds {
				preds[i] = &chaosPred{rng: rand.New(rand.NewSource(seed*7 + int64(i))), nodes: 4}
			}
		}
		sim, sys := newTestSystem(t, testConfig(), preds)
		completed := 0
		driver(sim, sys, seed, 300, 40, &completed)
		quiesce(t, sim, sys, preds != nil)
		if reg, res := auditCount(sys); reg != res {
			t.Errorf("seed %d: %d registered copies, %d resident lines", seed, reg, res)
		}
		hard, soft := sys.CheckCoherence()
		refHard, refSoft := refCheckCoherence(sys)
		if !reflect.DeepEqual(hard, refHard) || !reflect.DeepEqual(soft, refSoft) {
			t.Errorf("seed %d: audit %q %q, reference %q %q", seed, hard, soft, refHard, refSoft)
		}
	}
}
