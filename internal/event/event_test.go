package event

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestFIFOWithinCycle(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of order: %v", order)
		}
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %d, want 5", s.Now())
	}
}

func TestTimeOrdering(t *testing.T) {
	s := New()
	var fired []Time
	times := []Time{9, 3, 7, 1, 3, 100, 0}
	for _, at := range times {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events out of time order: %v", fired)
		}
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var hits []Time
	s.At(10, func() {
		hits = append(hits, s.Now())
		s.After(5, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	s := New()
	var at Time
	s.At(20, func() {
		s.At(3, func() { at = s.Now() }) // in the past: clamps to now
	})
	s.Run()
	if at != 20 {
		t.Fatalf("past event fired at %d, want clamped to 20", at)
	}
}

// TestScanRingCorruptPanics: a ring event count that disagrees with the
// buckets must stop the engine with a diagnosable panic after one ring
// revolution, not spin forever looking for an event that is not there.
func TestScanRingCorruptPanics(t *testing.T) {
	s := New()
	s.After(3, func() {})
	s.Run()
	s.ringCnt = 1 // every bucket is empty
	p := func() (p any) {
		defer func() { p = recover() }()
		s.Step()
		return nil
	}()
	err, ok := p.(error)
	if !ok {
		t.Fatalf("Step on a corrupt ring: recovered %v, want an error panic", p)
	}
	for _, want := range []string{"ringCnt = 1", "cursor 515", "now 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("panic %q does not name %q", err, want)
		}
	}
}

// Property: for any random schedule, events fire in nondecreasing time order
// and all events fire exactly once.
func TestPropertyOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		total := int(n%64) + 1
		fired := 0
		last := Time(0)
		ok := true
		for i := 0; i < total; i++ {
			at := Time(rng.Intn(50))
			s.At(at, func() {
				fired++
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok && fired == total && s.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Fired counter matches the number of scheduled events after Run.
func TestPropertyFiredCount(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		for _, at := range times {
			s.At(Time(at), func() {})
		}
		s.Run()
		return s.Fired == uint64(len(times))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// stepScript is a self-extending random schedule for TestRunMatchesStep.
// Event ids are handed out in scheduling order, and what an event
// schedules when it fires depends only on its id, so two engines that fire
// in the same order build the same schedule, and the first divergence
// shows in the firing log.
type stepScript struct {
	s      *Sim
	seed   uint64
	nextID int
	budget int
	log    []stepFired
	obs    []stepFired
}

type stepFired struct {
	id    int
	at    Time
	depth int
}

// scriptEv is the pre-bound argument of an AtFn/AfterFn event.
type scriptEv struct {
	sc *stepScript
	id int
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// scriptDeltas mixes delta 0 (the bucket being drained), small ring
// deltas, the ring edge and far-heap deltas (>= ringSize).
var scriptDeltas = []Time{0, 0, 1, 2, 3, 7, 150, ringSize - 1, ringSize, ringSize + 1, 3 * ringSize, 5000}

func fireScriptEv(a any) {
	e := a.(*scriptEv)
	e.sc.fire(e.id)
}

// add schedules one new event with pseudo-random delta and call form.
func (sc *stepScript) add(h uint64) {
	id := sc.nextID
	sc.nextID++
	d := scriptDeltas[h%uint64(len(scriptDeltas))]
	switch (h >> 8) % 5 {
	case 0:
		sc.s.At(sc.s.Now()+d, func() { sc.fire(id) })
	case 1:
		sc.s.After(d, func() { sc.fire(id) })
	case 2:
		sc.s.AtFn(sc.s.Now()+d, fireScriptEv, &scriptEv{sc, id})
	case 3:
		sc.s.AfterFn(d, fireScriptEv, &scriptEv{sc, id})
	default: // in the past: clamps to now
		sc.s.At(sc.s.Now()-min(sc.s.Now(), 3), func() { sc.fire(id) })
	}
}

func (sc *stepScript) fire(id int) {
	sc.log = append(sc.log, stepFired{id, sc.s.Now(), 0})
	h := splitmix(sc.seed ^ uint64(id)*0x100000001b3)
	for k := h % 4; k > 0 && sc.budget > 0; k-- {
		sc.budget--
		h = splitmix(h)
		sc.add(h)
	}
}

// runTo fires the events due by limit and parks the clock there: a
// sentinel event at limit stops the Step loop. The sentinel logs itself,
// so the log keeps one entry per fired event.
func (sc *stepScript) runTo(limit Time) {
	stop := false
	sc.s.At(limit, func() {
		stop = true
		sc.log = append(sc.log, stepFired{-1, sc.s.Now(), 0})
	})
	for !stop && sc.s.Step() {
	}
}

func newStepScript(seed uint64, observe bool) *stepScript {
	sc := &stepScript{s: New(), seed: seed, budget: 4000}
	if observe {
		sc.s.SetObserver(func(now Time, depth int) {
			sc.obs = append(sc.obs, stepFired{len(sc.obs), now, depth})
		})
	}
	h := seed
	for i := 0; i < 40; i++ {
		h = splitmix(h)
		sc.add(h)
	}
	return sc
}

// TestRunMatchesStep checks that Run's bucket drain fires exactly what a
// Step loop fires: the same events in the same order at the same cycles,
// the same (now, depth) observer sequence and the same Fired count, on
// random self-extending schedules that mix delta-0, ring-edge and
// far-heap deltas, nested schedules from inside callbacks, both call
// forms, past-clamped schedules, and a clock already advanced by a
// sentinel-stopped Step loop (runTo).
func TestRunMatchesStep(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		observe := seed%2 == 0
		run, step := newStepScript(seed, observe), newStepScript(seed, observe)
		if seed%4 == 1 {
			run.runTo(100)
			step.runTo(100)
		}
		run.s.Run()
		for step.s.Step() {
		}
		if len(run.log) < 1000 {
			t.Fatalf("seed %d: only %d events fired", seed, len(run.log))
		}
		if !slices.Equal(run.log, step.log) {
			t.Fatalf("seed %d: firing logs diverge (%d vs %d events)", seed, len(run.log), len(step.log))
		}
		if !slices.Equal(run.obs, step.obs) {
			t.Fatalf("seed %d: observer sequences diverge", seed)
		}
		if observe && len(run.obs) != len(run.log) {
			t.Fatalf("seed %d: %d observer calls for %d events", seed, len(run.obs), len(run.log))
		}
		if run.s.Fired != step.s.Fired || run.s.Now() != step.s.Now() || run.s.Pending() != 0 {
			t.Fatalf("seed %d: Fired %d/%d, Now %d/%d, Pending %d", seed,
				run.s.Fired, step.s.Fired, run.s.Now(), step.s.Now(), run.s.Pending())
		}
	}
}
