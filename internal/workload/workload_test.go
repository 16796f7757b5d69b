package workload

import (
	"fmt"
	"testing"
	"unsafe"

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
			tb.accessLoop(3, OpRead, func(i int) arch.Addr { return SliceAddr(0, 0, 4, i) })
			tb.accessLoop(2, OpWrite, func(i int) arch.Addr { return SliceAddr(0, 1, 4, i) })
		})
	}
	p := b.Finish(1, 0)
	ops := p.Threads[0]
	// Collect PCs of reads in each instance; must be identical across
	// instances (static identity).
	var instances [][]uint64
	var cur []uint64
	for _, op := range ops {
		switch op.Kind() {
		case OpBarrier:
			if cur != nil {
				instances = append(instances, cur)
			}
			cur = []uint64{}
		case OpRead, OpWrite:
			cur = append(cur, op.Static())
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
	if ops[1].Kind() != OpLock || ops[1].Addr() != LockAddr(3) {
		t.Fatalf("ops[1] = %+v", ops[1])
	}
	if ops[8].Kind() != OpUnlock {
		t.Fatalf("ops[8] = %+v", ops[8])
	}
	if ops[1].Static() != uint64(LockAddr(3)) {
		t.Fatal("lock static ID should be the lock address")
	}
	reads, writes := 0, 0
	for _, op := range ops[2:8] {
		switch op.Kind() {
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
			if ops[len(ops)-1].Kind() != OpEnd {
				t.Fatalf("%s thread %d: missing OpEnd", name, tid)
			}
			// Finish leaves no growth slack.
			if cap(ops) != len(ops) {
				t.Fatalf("%s thread %d: cap %d, len %d", name, tid, cap(ops), len(ops))
			}
			depth := 0
			for _, op := range ops {
				switch op.Kind() {
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

// TestOpSize pins the op layout at two words: kind and address share the
// first, and the second is the PC, the sync-point ID or the cycle count.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Op{}) = %d, want 16", got)
	}
}

// opFields is what an op's accessors read back.
type opFields struct {
	kind   OpKind
	addr   arch.Addr
	n      uint64
	static uint64
}

func fields(o Op) opFields { return opFields{o.Kind(), o.Addr(), o.N(), o.Static()} }

// roundTripOps builds every kind at the extremes of its fields: addresses
// 0 and 2^56-1, and PCs, sync IDs and cycle counts 0 and 2^64-1.
func roundTripOps() (ops []Op, want []opFields) {
	for _, addr := range []arch.Addr{0, 1<<56 - 1} {
		for _, v := range []uint64{0, ^uint64(0)} {
			for _, k := range []OpKind{OpRead, OpWrite} {
				ops = append(ops, MemOp(k, addr, v))
				want = append(want, opFields{k, addr, 0, v})
			}
			for _, k := range []OpKind{OpBarrier, OpLock, OpUnlock} {
				ops = append(ops, SyncOp(k, addr, v))
				want = append(want, opFields{k, addr, 0, v})
			}
		}
	}
	for _, n := range []uint64{0, 1<<32 + 10, ^uint64(0)} {
		ops = append(ops, ComputeOp(n))
		want = append(want, opFields{OpCompute, 0, n, 0})
	}
	ops = append(ops, EndOp())
	want = append(want, opFields{OpEnd, 0, 0, 0})
	return ops, want
}

func TestOpRoundTrip(t *testing.T) {
	ops, want := roundTripOps()
	for i, op := range ops {
		if got := fields(op); got != want[i] {
			t.Errorf("op %d: read back %+v, built %+v", i, got, want[i])
		}
	}
}

// TestOpEqualityIsFieldEquality checks that == on ops (golden_test's
// comparison) agrees with equality of all four accessor values.
func TestOpEqualityIsFieldEquality(t *testing.T) {
	ops, _ := roundTripOps()
	ops = append(ops, MemOp(OpRead, 0x40, 1), MemOp(OpRead, 0x40, 1), SyncOp(OpLock, 0x40, 1), ComputeOp(1))
	for i, a := range ops {
		for j, b := range ops {
			if (a == b) != (fields(a) == fields(b)) {
				t.Errorf("ops %d and %d: == is %v, accessors %+v and %+v", i, j, a == b, fields(a), fields(b))
			}
		}
	}
}

func TestOpAddressGuard(t *testing.T) {
	for _, build := range []func(){
		func() { MemOp(OpRead, 1<<56, 0) },
		func() { SyncOp(OpLock, 1<<56, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on an address of 2^56")
				}
			}()
			build()
		}()
	}
}

func TestOpString(t *testing.T) {
	got := fmt.Sprint([]Op{MemOp(OpWrite, 0x40, 0x400001), SyncOp(OpBarrier, 0x80, 3), ComputeOp(100), EndOp()})
	if want := "[write 0x40 pc=0x400001 barrier 0x80 id=0x3 compute n=100 end]"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestThreadAppendLeavesNeighbour checks that the threads sharing a
// program's array cannot write into each other through append.
func TestThreadAppendLeavesNeighbour(t *testing.T) {
	p, _ := Builtin().Lookup("ocean")
	prog, err := FromSpec(p.Spec, 4, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	next := append([]Op(nil), prog.Threads[1]...)
	prog.Threads[0] = append(prog.Threads[0], ComputeOp(1))
	for i := range next {
		if prog.Threads[1][i] != next[i] {
			t.Fatalf("appending to thread 0 changed thread 1's op %d: %+v, was %+v",
				i, prog.Threads[1][i], next[i])
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
				if op.Kind() == OpBarrier {
					seq = append(seq, op.Static())
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
