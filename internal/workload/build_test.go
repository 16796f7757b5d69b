package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"runtime"
	"testing"
	"unsafe"

	"spcoh/internal/arch"
	"spcoh/internal/scenario"
)

// hashProgram feeds a program's op streams into h: the thread count, then
// each thread's length and, per op, three words: Kind<<32|N, Addr and
// Static. Spec-built compute counts stay below MaxCount, so N fits the
// low half of the first word.
func hashProgram(h hash.Hash, p *Program) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(p.Threads)))
	for _, ops := range p.Threads {
		put(uint64(len(ops)))
		for _, op := range ops {
			put(uint64(op.Kind())<<32 | op.N())
			put(uint64(op.Addr()))
			put(op.Static())
		}
	}
}

// featureSpec exercises what the generator never emits: defs that read
// defs and draw from rng, a loop variable shadowing a def, a nested loop
// shadowing its outer loop, min/max/child/parent/east/west, every
// comparison, unary minus and not, and division and modulo.
const featureSpec = `{
  "version": 1, "name": "features", "suite": "fuzz",
  "barriers": 4, "locks": 3, "iters": 5,
  "defs": {"k": "rng(3) + 1", "span": "min(k * 2, max(n / 2, 1))", "peer": "child(i, j % 2)"},
  "steps": [
    {"when": "!(j == 1) && -i < 1", "op": "produce", "region": "j % 2", "to": "peer",
     "lines": 4, "count": "span + it % 3"},
    {"when": "j == 1 || i >= n - 1", "op": "consume", "region": "0", "from": "parent(i)",
     "lines": 4, "count": "max(k - 1, 0)"},
    {"op": "loop", "var": "k", "lo": "0", "hi": "1", "steps": [
      {"op": "consume", "region": "2", "from": "east(i + k)", "lines": 2, "count": "k + 1"},
      {"op": "loop", "var": "k", "lo": "k", "hi": "2", "steps": [
        {"when": "k != 1", "op": "produce", "region": "3", "to": "west(i)", "lines": 2, "count": "k"}
      ]},
      {"op": "cs", "lock": "(i + k) % locks", "region": "4", "lines": 2, "count": "k * 2 + rng(2)"}
    ]},
    {"when": "i <= 1 && j > 0", "op": "private", "count": "k + span", "ws": 64},
    {"op": "compute", "cycles": "100 / k - (i % 2) * 10"}
  ]
}`

// TestGeneratedSpecsPinned pins the op streams FromSpec builds from
// generated specs and from featureSpec, so a change to the expression
// evaluator or to the builder cannot move a byte unnoticed.
func TestGeneratedSpecsPinned(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 50; seed++ {
		p, err := FromSpec(scenario.Generate(seed, scenario.GenOptions{}), 16, 1, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hashProgram(h, p)
	}
	const wantGen = "79c6ace607b6a9b9cf04e62898c6984701cf4220b2decadd091bd919f6f880f5"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantGen {
		t.Errorf("generated specs 1-50: digest %s, want %s", got, wantGen)
	}

	sp, err := scenario.Parse([]byte(featureSpec))
	if err != nil {
		t.Fatal(err)
	}
	h.Reset()
	for _, threads := range []int{1, 3, 16} {
		for _, seed := range []int64{1, 2, 3} {
			p, err := FromSpec(sp, threads, 1, seed)
			if err != nil {
				t.Fatalf("features t%d s%d: %v", threads, seed, err)
			}
			hashProgram(h, p)
		}
	}
	const wantFeat = "8324550894f4735088b2ff147dc565e39044d964b3655212ca2172203d0d1ade"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantFeat {
		t.Errorf("feature spec: digest %s, want %s", got, wantFeat)
	}
}

// buildSuite builds every built-in program at 16 threads, scale 0.25,
// seed 42 (the perfbench suites' size) and returns their total op count.
func buildSuite(tb testing.TB) int {
	ops := 0
	for _, p := range Builtin().Profiles() {
		prog, err := p.Program(16, 0.25, 42)
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		ops += prog.TotalOps()
	}
	return ops
}

// TestBuildAllocCeiling bounds what building the suite allocates: the
// exact op arrays plus 10% for compiled specs, random sources and
// headers. Streams grown by append doubling, or an expression walk that
// allocates per call, break the ceiling several times over.
// TotalAlloc is process-wide, so the smallest of several windows is the
// build's own cost.
func TestBuildAllocCeiling(t *testing.T) {
	buildSuite(t) // parse the embedded specs outside the measured windows
	got, ops := ^uint64(0), 0
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ops = buildSuite(t)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	opBytes := uint64(ops) * uint64(unsafe.Sizeof(Op{}))
	if ceiling := opBytes + opBytes/10; got > ceiling {
		t.Fatalf("building the suite allocated %d B for %d B of ops (%.2fx), ceiling %d B (1.1x)",
			got, opBytes, float64(got)/float64(opBytes), ceiling)
	}
}

// BenchmarkBuildSuite times building the 17 built-in programs.
func BenchmarkBuildSuite(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		buildSuite(b)
	}
}

// TestReservedMiscountFails checks that a thread emitting one op fewer or
// one more than reserve counted fails the build instead of yielding a
// short or long stream, and that its neighbour's stream is untouched.
func TestReservedMiscountFails(t *testing.T) {
	for _, delta := range []int{0, -1, 1} {
		b := NewBuilder("miscount", 2, 1)
		bar := b.Barriers(1)[0]
		b.reserve([]int{1 + 4, 1 + 4}) // a barrier and four reads each
		b.Bar(bar)
		b.Thread(0).accessLoop(4+delta, OpRead, func(i int) arch.Addr { return SharedAddr(0, i%4) })
		b.Thread(1).accessLoop(4, OpRead, func(i int) arch.Addr { return SharedAddr(1, i%4) })
		p, err := b.finishReserved(1, 0)
		if delta == 0 {
			if err != nil {
				t.Fatalf("exact count: %v", err)
			}
			for tid, ops := range p.Threads {
				if len(ops) != 6 || cap(ops) != 6 || ops[5].Kind() != OpEnd {
					t.Fatalf("exact count: thread %d len %d cap %d", tid, len(ops), cap(ops))
				}
			}
			continue
		}
		if err == nil {
			t.Fatalf("thread 0 emitted %+d ops against its reservation: no error", delta)
		}
		if ops := b.threads[1]; len(ops) != 5 || ops[0].Kind() != OpBarrier || ops[1].Kind() != OpRead {
			t.Fatalf("delta %+d: thread 1's stream changed: %+v", delta, ops)
		}
	}
}
