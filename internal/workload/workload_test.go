package workload

import (
	"testing"

	"spcoh/internal/arch"
)

func TestAddressLayoutDisjoint(t *testing.T) {
	// Private, shared, lock and barrier spaces must never collide.
	addrs := []arch.Addr{
		PrivateAddr(0, 0), PrivateAddr(15, 1<<20),
		SharedAddr(0, 0), SharedAddr(7, 1<<20),
		LockAddr(0), LockAddr(63),
		BarrierAddr(0), BarrierAddr(99),
	}
	spaces := []arch.Addr{privateBase, privateBase, sharedBase, sharedBase, lockBase, lockBase, barrierBase, barrierBase}
	for i, a := range addrs {
		if a < spaces[i] || a >= spaces[i]+0x1000_0000_0000 {
			t.Fatalf("address %#x escaped its space %#x", uint64(a), uint64(spaces[i]))
		}
	}
	if PrivateAddr(0, 0) == PrivateAddr(1, 0) {
		t.Fatal("threads share private space")
	}
	if LockAddr(1).Line() == LockAddr(2).Line() {
		t.Fatal("locks share a cache line")
	}
}

func TestSliceAddrOwnership(t *testing.T) {
	a := SliceAddr(0, 2, 16, 5)
	bAddr := SliceAddr(0, 3, 16, 5)
	if a == bAddr {
		t.Fatal("different owners share slice lines")
	}
	// Cycling within the slice.
	if SliceAddr(0, 2, 16, 5) != SliceAddr(0, 2, 16, 21) {
		t.Fatal("slice indexing should wrap at sliceLines")
	}
}

func TestBuilderStaticIdentity(t *testing.T) {
	b := NewBuilder("x", 2, 1)
	bars := b.Barriers(1)
	for it := 0; it < 3; it++ {
		b.Bar(bars[0])
		b.ForAll(func(tb *T) {
			tb.ReadSlice(0, 0, 4, 3)
			tb.WriteSlice(0, 1, 4, 2)
		})
	}
	p := b.Finish(1, 0)
	ops := p.Threads[0]
	// Collect PCs of reads in each instance; must be identical across
	// instances (static identity).
	var instances [][]uint64
	var cur []uint64
	for _, op := range ops {
		switch op.Kind {
		case OpBarrier:
			if cur != nil {
				instances = append(instances, cur)
			}
			cur = []uint64{}
		case OpRead, OpWrite:
			cur = append(cur, op.PC)
		}
	}
	instances = append(instances, cur)
	if len(instances) != 3 {
		t.Fatalf("instances = %d", len(instances))
	}
	for i := 1; i < 3; i++ {
		if len(instances[i]) != len(instances[0]) {
			t.Fatalf("instance %d has %d ops, want %d", i, len(instances[i]), len(instances[0]))
		}
		for k := range instances[i] {
			if instances[i][k] != instances[0][k] {
				t.Fatalf("PC differs across instances at op %d", k)
			}
		}
	}
	// One static PC per helper call site: 3 reads share one PC.
	if instances[0][0] != instances[0][1] || instances[0][0] == instances[0][3] {
		t.Fatalf("helper PC assignment wrong: %v", instances[0])
	}
}

func TestCSStructure(t *testing.T) {
	b := NewBuilder("x", 1, 1)
	bars := b.Barriers(1)
	b.Bar(bars[0])
	b.ForAll(func(tb *T) { tb.CS(3, 0, 4, 6) })
	p := b.Finish(1, 1)
	ops := p.Threads[0]
	// barrier, lock, 6 accesses, unlock, end
	if ops[1].Kind != OpLock || ops[1].Addr != LockAddr(3) {
		t.Fatalf("ops[1] = %+v", ops[1])
	}
	if ops[8].Kind != OpUnlock {
		t.Fatalf("ops[8] = %+v", ops[8])
	}
	if ops[1].Sync != uint64(LockAddr(3)) {
		t.Fatal("lock static ID should be the lock address")
	}
	reads, writes := 0, 0
	for _, op := range ops[2:8] {
		switch op.Kind {
		case OpRead:
			reads++
		case OpWrite:
			writes++
		}
	}
	if reads != 3 || writes != 3 {
		t.Fatalf("CS mix = %d reads %d writes", reads, writes)
	}
}

// buildProfile builds a built-in profile's program, failing t on error.
func buildProfile(t *testing.T, name string, threads int, scale float64, seed int64) *Program {
	t.Helper()
	p, ok := Builtin().Lookup(name)
	if !ok {
		t.Fatalf("missing profile %s", name)
	}
	prog, err := p.Program(threads, scale, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return prog
}

func TestAllProfilesBuild(t *testing.T) {
	names := Builtin().Names()
	if len(names) != 17 {
		t.Fatalf("expected 17 benchmarks, have %d", len(names))
	}
	for _, name := range names {
		prog := buildProfile(t, name, 16, 0.05, 42)
		if prog.NumThreads() != 16 {
			t.Fatalf("%s: threads = %d", name, prog.NumThreads())
		}
		if prog.TotalOps() < 16*50 {
			t.Fatalf("%s: implausibly small (%d ops)", name, prog.TotalOps())
		}
		for tid, ops := range prog.Threads {
			if ops[len(ops)-1].Kind != OpEnd {
				t.Fatalf("%s thread %d: missing OpEnd", name, tid)
			}
			depth := 0
			for _, op := range ops {
				switch op.Kind {
				case OpLock:
					depth++
					if depth > 1 {
						t.Fatalf("%s: nested locks", name)
					}
				case OpUnlock:
					depth--
					if depth < 0 {
						t.Fatalf("%s: unlock without lock", name)
					}
				case OpBarrier:
					if depth != 0 {
						t.Fatalf("%s: barrier inside critical section", name)
					}
				}
			}
			if depth != 0 {
				t.Fatalf("%s thread %d: unbalanced locks", name, tid)
			}
		}
	}
}

func TestProfilesSPMDBarriers(t *testing.T) {
	// All threads must execute the same barrier sequence or the runtime
	// deadlocks.
	for _, name := range Builtin().Names() {
		prog := buildProfile(t, name, 8, 0.05, 1)
		var ref []uint64
		for tid, ops := range prog.Threads {
			var seq []uint64
			for _, op := range ops {
				if op.Kind == OpBarrier {
					seq = append(seq, op.Sync)
				}
			}
			if tid == 0 {
				ref = seq
				continue
			}
			if len(seq) != len(ref) {
				t.Fatalf("%s: thread %d barrier count %d != %d", name, tid, len(seq), len(ref))
			}
			for i := range seq {
				if seq[i] != ref[i] {
					t.Fatalf("%s: thread %d diverges at barrier %d", name, tid, i)
				}
			}
		}
	}
}

func TestScaleChangesSize(t *testing.T) {
	small := buildProfile(t, "ocean", 4, 0.05, 1).TotalOps()
	large := buildProfile(t, "ocean", 4, 0.5, 1).TotalOps()
	if large <= small {
		t.Fatalf("scale should grow the program: %d vs %d", small, large)
	}
}

func TestDeterministicBuild(t *testing.T) {
	// radiosity uses build-time randomness.
	a := buildProfile(t, "radiosity", 4, 0.05, 7)
	b := buildProfile(t, "radiosity", 4, 0.05, 7)
	if a.TotalOps() != b.TotalOps() {
		t.Fatal("same seed must build identical programs")
	}
	for tid := range a.Threads {
		for i := range a.Threads[tid] {
			if a.Threads[tid][i] != b.Threads[tid][i] {
				t.Fatalf("op %d of thread %d differs", i, tid)
			}
		}
	}
	c := buildProfile(t, "radiosity", 4, 0.05, 8)
	same := true
	for tid := range a.Threads {
		if len(a.Threads[tid]) != len(c.Threads[tid]) {
			same = false
			break
		}
		for i := range a.Threads[tid] {
			if a.Threads[tid][i] != c.Threads[tid][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds should differ for randomized profiles")
	}
}

func TestRegistryComplete(t *testing.T) {
	r := Builtin()
	if len(r.Names()) != 17 || len(r.Profiles()) != 17 {
		t.Fatalf("registry has %d names and %d profiles, want 17", len(r.Names()), len(r.Profiles()))
	}
	for _, name := range r.Names() {
		p, ok := r.Lookup(name)
		if !ok {
			t.Fatalf("registry missing %q", name)
		}
		if p.Spec == nil || p.Spec.Name != name {
			t.Fatalf("%q: bad spec binding", name)
		}
		if p.Paper.DynEpochs == 0 {
			t.Fatalf("%q: missing paper reference stats", name)
		}
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("unknown benchmark should not resolve")
	}
}

func TestRegistryRejects(t *testing.T) {
	r := NewRegistry()
	p, ok := Builtin().Lookup("ocean")
	if !ok {
		t.Fatal("missing profile ocean")
	}
	if err := r.Register(p); err != nil {
		t.Fatalf("first register: %v", err)
	}
	if err := r.Register(p); err == nil {
		t.Fatal("duplicate register should error")
	}
	if err := r.Register(Profile{Name: "nospec"}); err == nil {
		t.Fatal("nil spec should error")
	}
	bad := *p.Spec
	bad.Name = "other"
	if err := r.Register(Profile{Name: "mismatch", Spec: &bad}); err == nil {
		t.Fatal("name/spec mismatch should error")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "ocean" {
		t.Fatalf("registration order = %v", got)
	}
}
