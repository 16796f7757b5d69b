package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"spcoh/internal/arch"
)

// tableKeys returns n distinct line addresses, each a multiple of 256
// plus 5 as the lines of one slice of a 16x16 mesh are, some near the top
// of the address space. Every other one starts its probe at slot 0 of the
// initial table, so early probes walk a cluster; the rest fall anywhere.
func tableKeys(n int) []arch.LineAddr {
	d := newDirSlice(nil, 0)
	var out []arch.LineAddr
	for k := uint64(0); len(out) < n; k++ {
		l := arch.LineAddr(k<<8 | 5)
		if k%7 == 3 {
			l |= 1 << 57
		}
		if len(out)%2 == 1 || d.slot(l) == 0 {
			out = append(out, l)
		}
	}
	return out
}

// TestDirTableMatchesMap drives a slice's line table and a Go map with the
// same random materializations and lookups over a partly colliding key
// set, through several 3/4-load doublings and across many chunk
// boundaries, and requires every answer to agree: a line keeps its entry
// (the pointer and what was written through it) across growths, a new
// line gets a fresh idle entry that names it, and a never-touched line
// looks up as nil, also once the table is full of others. A walk of the
// slots must then visit each line exactly once.
func TestDirTableMatchesMap(t *testing.T) {
	keys := tableKeys(2400)
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newDirSlice(nil, 0)
		ref := make(map[arch.LineAddr]*dirLine)
		limit := 8 + rng.Intn(len(keys)-408) // lines in play: up to 4 doublings, 42 chunks
		for op := 0; op < 12000; op++ {
			l := keys[rng.Intn(limit)]
			if rng.Intn(5) < 3 {
				e := d.line(l)
				if want, ok := ref[l]; ok {
					if e != want {
						t.Fatalf("seed %d op %d: line(%#x) = %p, want the entry %p it got first", seed, op, uint64(l), e, want)
					}
					if e.state != dirE || e.owner.id() != arch.NodeID(uint64(l)%arch.MaxNodes) {
						t.Fatalf("seed %d op %d: line(%#x) lost what was written through it: %+v", seed, op, uint64(l), *e)
					}
					continue
				}
				if e.line != l || e.state != dirU || e.owner != noNode || e.fwd != noNode ||
					e.pendingSupplier != noNode || e.busy || e.queued || !e.sharers.Empty() {
					t.Fatalf("seed %d op %d: new line(%#x) is not idle dirU: %+v", seed, op, uint64(l), *e)
				}
				e.state, e.owner = dirE, dirNode(uint64(l)%arch.MaxNodes)
				ref[l] = e
			} else if got, want := d.lookup(l), ref[l]; got != want {
				t.Fatalf("seed %d op %d: lookup(%#x) = %p, map %p", seed, op, uint64(l), got, want)
			}
			if d.used != len(ref) || 4*d.used > 3*len(d.table) || len(d.table)&(len(d.table)-1) != 0 ||
				len(d.chunks) != (d.used+dirChunk-1)/dirChunk {
				t.Fatalf("seed %d op %d: %d used of %d slots in %d chunks, map holds %d",
					seed, op, d.used, len(d.table), len(d.chunks), len(ref))
			}
		}
		for _, l := range keys[limit:] {
			if e := d.lookup(l); e != nil {
				t.Fatalf("seed %d: absent line %#x looks up as %+v", seed, uint64(l), *e)
			}
		}
		seen := make(map[arch.LineAddr]bool, len(ref))
		for _, x := range d.table {
			if x == 0 {
				continue
			}
			e := d.entry(x)
			if seen[e.line] {
				t.Fatalf("seed %d: walk visits %#x twice", seed, uint64(e.line))
			}
			seen[e.line] = true
			if ref[e.line] != e {
				t.Fatalf("seed %d: slot holds %#x → %p, map %p", seed, uint64(e.line), e, ref[e.line])
			}
		}
		if len(seen) != len(ref) {
			t.Fatalf("seed %d: walk visits %d lines, map holds %d", seed, len(seen), len(ref))
		}
		// Growth doubles exactly when one more line would pass 3/4 load.
		want := dirTableMin
		for 4*len(ref) > 3*want {
			want *= 2
		}
		if len(d.table) != want {
			t.Fatalf("seed %d: %d lines in %d slots, want %d", seed, len(ref), len(d.table), want)
		}
	}
}

// TestDirLineLayout pins the directory entry at 56 bytes with no pointer
// in it, so a slice's entries and table stay out of the garbage
// collector's scan and a 16x16 mesh's slices stay small.
func TestDirLineLayout(t *testing.T) {
	if got := unsafe.Sizeof(dirLine{}); got > 56 {
		t.Fatalf("unsafe.Sizeof(dirLine{}) = %d, want at most 56", got)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("dirLine%s is a %v, which holds a pointer", path, ty.Kind())
		}
	}
	walk("", reflect.TypeOf(dirLine{}))
	if got := reflect.TypeOf(DirSlice{}.table).Elem().Kind(); got != reflect.Uint32 {
		t.Errorf("DirSlice.table slots are %v, want uint32 indices", got)
	}
}

// TestDirQueueFIFO queues three requests on one busy line and releases the
// line once per request: each release must start exactly the oldest
// waiting request, which makes the line busy again, while the others keep
// waiting in arrival order.
func TestDirQueueFIFO(t *testing.T) {
	_, sys := newTestSystem(t, testConfig(), nil)
	const home = 3
	l := plantedLine(home, 0)
	d := sys.Dirs[home]
	d.handle(&Msg{Kind: MsgGetM, Src: 0, Dst: home, Line: l, Requester: 0})
	e := d.line(l)
	if !e.busy || e.queued {
		t.Fatalf("after the first GetM: busy %v queued %v, want busy and nothing queued", e.busy, e.queued)
	}
	d.handle(&Msg{Kind: MsgGetM, Src: 1, Dst: home, Line: l, Requester: 1})
	d.handle(&Msg{Kind: MsgGetS, Src: 2, Dst: home, Line: l, Requester: 2})
	d.handle(&Msg{Kind: MsgGetM, Src: 0, Dst: home, Line: l, Requester: 0, PC: 7})
	waiting := func() (out []string) {
		for _, m := range d.waiting[l] {
			out = append(out, fmt.Sprintf("%v/%d/%d", m.Kind, m.Requester, m.PC))
		}
		return out
	}
	for i, want := range [][]string{
		{"GetM/1/0", "GetS/2/0", "GetM/0/7"},
		{"GetS/2/0", "GetM/0/7"},
		{"GetM/0/7"},
		nil,
	} {
		if i > 0 {
			d.handle(&Msg{Kind: MsgUnblock, Src: 0, Dst: home, Line: l})
		}
		if got := waiting(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d releases: waiting %v, want %v", i, got, want)
		}
		if !e.busy || e.queued != (len(want) > 0) {
			t.Fatalf("after %d releases: busy %v queued %v, want busy with %d waiting", i, e.busy, e.queued, len(want))
		}
	}
	if _, ok := d.waiting[l]; ok {
		t.Fatal("a drained line keeps its waiting-map key")
	}
}
