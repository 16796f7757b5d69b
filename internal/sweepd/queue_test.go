package sweepd

import (
	"testing"
	"time"

	"spcoh/internal/runcfg"
	"spcoh/internal/sweep"
)

// fakeClock drives the queue without sleeping.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testJob(bench string) sweep.Job {
	return sweep.Job{
		Bench:     bench,
		Kind:      "sp",
		RunConfig: runcfg.RunConfig{Threads: 16, Scale: 0.25, Seed: 42},
	}
}

func newTestQueue(clk *fakeClock, cfg queueConfig) *queue {
	cfg.now = clk.now
	return newQueue(cfg)
}

func TestLeaseLifecycleExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute, MaxAttempts: 2})
	j := testJob("ocean")
	q.add(j, "", false)

	g, drained := q.lease("w1")
	if g == nil || drained {
		t.Fatalf("lease: got %v drained=%v, want a grant", g, drained)
	}
	if got := q.counts(nil); got.Leased != 1 || got.Pending != 0 {
		t.Fatalf("counts after lease: %+v", got)
	}
	// A second worker finds nothing while the lease is live.
	if g2, _ := q.lease("w2"); g2 != nil {
		t.Fatalf("leased job handed out twice: %+v", g2)
	}

	// Before the TTL, expire is a no-op.
	clk.advance(59 * time.Second)
	if dead := q.expire(); len(dead) != 0 {
		t.Fatalf("expire before TTL killed %d jobs", len(dead))
	}
	if got := q.counts(nil); got.Leased != 1 {
		t.Fatalf("counts after early expire: %+v", got)
	}

	// Past the TTL, the job requeues (attempt 1 of 2 burned).
	clk.advance(2 * time.Second)
	if dead := q.expire(); len(dead) != 0 {
		t.Fatalf("first expiry should requeue, not fail: %v", dead)
	}
	if got := q.counts(nil); got.Pending != 1 || got.Leased != 0 {
		t.Fatalf("counts after expiry: %+v", got)
	}
	st := q.status([]string{j.Key()})
	if len(st) != 1 || st[0].State != "pending" || st[0].Attempts != 1 {
		t.Fatalf("status after expiry: %+v", st)
	}

	// Second lease, second expiry: attempts exhausted, terminally failed,
	// and expire reports the job for the failure ledger.
	g, _ = q.lease("w2")
	if g == nil {
		t.Fatal("requeued job not leasable")
	}
	clk.advance(2 * time.Minute)
	dead := q.expire()
	if len(dead) != 1 || dead[0].Key() != j.Key() {
		t.Fatalf("second expiry should terminally fail %s: %v", j.Key(), dead)
	}
	st = q.status([]string{j.Key()})
	if st[0].State != "failed" || st[0].Attempts != 2 || st[0].Error == "" {
		t.Fatalf("terminal status: %+v", st[0])
	}
	if !q.drainedLocked() {
		t.Fatal("queue with only a failed job should report drained")
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute, MaxAttempts: 1})
	q.add(testJob("ocean"), "", false)
	g, _ := q.lease("w1")

	// Heartbeats every 30s keep a 1m lease alive well past its original TTL.
	for i := 0; i < 10; i++ {
		clk.advance(30 * time.Second)
		if dead := q.expire(); len(dead) != 0 {
			t.Fatalf("heartbeated lease expired at step %d", i)
		}
		if err := q.heartbeat(g.leaseID); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if got := q.counts(nil); got.Leased != 1 {
		t.Fatalf("counts after heartbeats: %+v", got)
	}

	// Stop heartbeating: one TTL later the lease dies and the heartbeat
	// starts answering ErrLeaseGone (MaxAttempts=1 → terminal).
	clk.advance(2 * time.Minute)
	if dead := q.expire(); len(dead) != 1 {
		t.Fatalf("lease should expire after heartbeats stop: %v", dead)
	}
	if err := q.heartbeat(g.leaseID); err != ErrLeaseGone {
		t.Fatalf("heartbeat on dead lease: %v, want ErrLeaseGone", err)
	}
	if err := q.heartbeat("L99999999"); err != ErrUnknownLease {
		t.Fatalf("heartbeat on never-issued lease: %v, want ErrUnknownLease", err)
	}
}

func TestDuplicateCompletionFirstWriteWins(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute, MaxAttempts: 3})
	j := testJob("ocean")
	q.add(j, "", false)

	// w1 leases, its lease expires, w2 leases the requeued job and wins.
	g1, _ := q.lease("w1")
	clk.advance(2 * time.Minute)
	q.expire()
	g2, _ := q.lease("w2")
	if g2 == nil || g2.leaseID == g1.leaseID {
		t.Fatalf("requeued job should get a fresh lease: %+v", g2)
	}

	if _, done, err := q.jobForLease(g2.leaseID); err != nil || done {
		t.Fatalf("w2 jobForLease: done=%v err=%v", done, err)
	}
	q.markDone(g2.leaseID)
	if st := q.status([]string{j.Key()}); st[0].State != "done" {
		t.Fatalf("after w2 completes: %+v", st[0])
	}

	// w1's late completion resolves through its old lease and reports the
	// duplicate; the job's state does not change.
	_, done, err := q.jobForLease(g1.leaseID)
	if err != nil {
		t.Fatalf("w1's expired lease must still resolve: %v", err)
	}
	if !done {
		t.Fatal("w1's completion should be flagged as a duplicate")
	}
	q.markDone(g1.leaseID) // the server still closes the attempt record
	st := q.status([]string{j.Key()})
	if st[0].State != "done" || st[0].Attempts != 2 {
		t.Fatalf("after duplicate completion: %+v", st[0])
	}
}

func TestFailRequeuesWithBackoffGate(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{
		TTL: time.Minute, MaxAttempts: 2,
		Backoff: time.Second, BackoffSeed: 7,
	})
	j := testJob("ocean")
	q.add(j, "", false)

	g, _ := q.lease("w1")
	if _, terminal, err := q.fail(g.leaseID, "boom"); err != nil || terminal {
		t.Fatalf("first failure: terminal=%v err=%v", terminal, err)
	}
	// The requeue gate holds the job back for retryDelay(key, 2, ...).
	want := retryDelay(j.Key(), 2, time.Second, 7)
	if want <= 0 {
		t.Fatal("test needs a positive backoff delay")
	}
	if g2, _ := q.lease("w1"); g2 != nil {
		t.Fatalf("job leased before its backoff gate: %+v", g2)
	}
	clk.advance(want + time.Millisecond)
	g2, _ := q.lease("w1")
	if g2 == nil {
		t.Fatal("job not leasable after its backoff gate")
	}

	// Second failure exhausts the attempts.
	_, terminal, err := q.fail(g2.leaseID, "boom again")
	if err != nil || !terminal {
		t.Fatalf("second failure: terminal=%v err=%v", terminal, err)
	}
	st := q.status([]string{j.Key()})
	if st[0].State != "failed" || st[0].Error != "boom again" {
		t.Fatalf("terminal status: %+v", st[0])
	}
}

func TestStaleFailDoesNotDisturbNewLease(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute, MaxAttempts: 5})
	j := testJob("ocean")
	q.add(j, "", false)

	g1, _ := q.lease("w1")
	clk.advance(2 * time.Minute)
	q.expire()
	g2, _ := q.lease("w2")

	// w1's stale failure report must not requeue or fail the job w2 holds.
	if _, terminal, err := q.fail(g1.leaseID, "stale"); err != nil || terminal {
		t.Fatalf("stale fail: terminal=%v err=%v", terminal, err)
	}
	st := q.status([]string{j.Key()})
	if st[0].State != "leased" {
		t.Fatalf("stale fail disturbed the active lease: %+v", st[0])
	}
	if err := q.heartbeat(g2.leaseID); err != nil {
		t.Fatalf("active lease broken by stale fail: %v", err)
	}
}

func TestCachedAddIsTerminal(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute, MaxAttempts: 1})
	q.add(testJob("ocean"), "", true) // recalled from the store
	q.add(testJob("fmm"), "", false)

	c := q.counts(nil)
	if c.Jobs != 2 || c.Done != 1 || c.Cached != 1 || c.Pending != 1 {
		t.Fatalf("counts: %+v", c)
	}
	// The cached job is never handed out.
	g, _ := q.lease("w1")
	if g == nil || g.job.Bench != "fmm" {
		t.Fatalf("lease should skip the cached job: %+v", g)
	}
	q.markDone(g.leaseID)
	if g, drained := q.lease("w1"); g != nil || !drained {
		t.Fatalf("queue should be drained: grant=%v drained=%v", g, drained)
	}
}

func TestTerminalStatusReplay(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute, MaxAttempts: 1})
	a, b := testJob("fmm"), testJob("ocean")
	q.add(a, "", false)
	q.add(b, "", false)
	keys := []string{a.Key(), b.Key()}

	seen := make(map[string]bool)
	if events, done := q.terminalStatuses(keys, seen); len(events) != 0 || done {
		t.Fatalf("fresh queue: events=%v done=%v", events, done)
	}

	g, _ := q.lease("w1") // fmm (key order)
	q.markDone(g.leaseID)
	events, done := q.terminalStatuses(keys, seen)
	if len(events) != 1 || events[0].Key != a.Key() || done {
		t.Fatalf("after one completion: events=%+v done=%v", events, done)
	}
	// Replay is incremental: the same terminal state is not re-delivered.
	if events, _ := q.terminalStatuses(keys, seen); len(events) != 0 {
		t.Fatalf("terminal state replayed twice: %+v", events)
	}

	g, _ = q.lease("w1")
	q.markDone(g.leaseID)
	events, done = q.terminalStatuses(keys, seen)
	if len(events) != 1 || events[0].Key != b.Key() || !done {
		t.Fatalf("after both complete: events=%+v done=%v", events, done)
	}

	// A late subscriber replays both terminal states at once.
	late := make(map[string]bool)
	events, done = q.terminalStatuses(keys, late)
	if len(events) != 2 || !done {
		t.Fatalf("late subscriber replay: events=%+v done=%v", events, done)
	}
}

func TestWatchFiresOnTransition(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute, MaxAttempts: 1})
	ch := q.watch()
	select {
	case <-ch:
		t.Fatal("watch fired before any transition")
	default:
	}
	q.add(testJob("ocean"), "", false)
	select {
	case <-ch:
	default:
		t.Fatal("watch did not fire on add")
	}
}

func TestRetryDelayPureAndBounded(t *testing.T) {
	const base = time.Second

	// Pure: the same inputs always produce the same delay.
	for _, key := range []string{"ocean/sp/t16/x0.25/s42", "fmm/dir/t16/x1/s7"} {
		for attempt := 2; attempt <= 6; attempt++ {
			a := retryDelay(key, attempt, base, 99)
			b := retryDelay(key, attempt, base, 99)
			if a != b {
				t.Fatalf("retryDelay(%q, %d) not deterministic: %v vs %v", key, attempt, a, b)
			}
			// Bounded by the jitter envelope around base << (attempt-2).
			lo := time.Duration(float64(base<<(attempt-2)) * 0.5)
			hi := time.Duration(float64(base<<(attempt-2)) * 1.5)
			if a < lo || a >= hi {
				t.Fatalf("retryDelay(%q, %d) = %v outside [%v, %v)", key, attempt, a, lo, hi)
			}
		}
	}

	// The first attempt and a zero base never wait.
	if d := retryDelay("k", 1, base, 0); d != 0 {
		t.Fatalf("attempt 1 delayed %v", d)
	}
	if d := retryDelay("k", 3, 0, 0); d != 0 {
		t.Fatalf("zero base delayed %v", d)
	}

	// Different seeds and different keys decorrelate the jitter (with the
	// same exponent the raw delay would otherwise collide).
	if retryDelay("k", 2, base, 1) == retryDelay("k", 2, base, 2) &&
		retryDelay("k", 3, base, 1) == retryDelay("k", 3, base, 2) {
		t.Fatal("seed does not influence the jitter")
	}
	if retryDelay("a", 2, base, 0) == retryDelay("b", 2, base, 0) &&
		retryDelay("a", 3, base, 0) == retryDelay("b", 3, base, 0) {
		t.Fatal("key does not influence the jitter")
	}

	// The exponent caps: absurd attempt numbers must not overflow.
	if d := retryDelay("k", 1000, time.Millisecond, 0); d <= 0 || d > time.Duration(1)<<40 {
		t.Fatalf("capped delay out of range: %v", d)
	}
}
