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

func TestExpiredLeaseFailsTerminally(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute})
	j := testJob("ocean")
	q.add(j, false)

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

	// Past the TTL the job fails terminally, and expire reports it for
	// the failure ledger. It is never leased again.
	clk.advance(2 * time.Second)
	dead := q.expire()
	if len(dead) != 1 || dead[0].Key() != j.Key() {
		t.Fatalf("expiry should terminally fail %s: %v", j.Key(), dead)
	}
	if got := q.counts(nil); got.Failed != 1 || got.Leased != 0 || got.Pending != 0 {
		t.Fatalf("counts after expiry: %+v", got)
	}
	state, _, msg := q.outcome(j.Key())
	if state != stateFailed || msg != "lease expired (worker w1)" {
		t.Fatalf("terminal outcome: %v %q", state, msg)
	}
	if g, drained := q.lease("w2"); g != nil || !drained {
		t.Fatalf("failed job re-leased: grant=%v drained=%v", g, drained)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute})
	q.add(testJob("ocean"), false)
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
	// starts answering ErrLeaseGone (the job failed).
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
	q := newTestQueue(clk, queueConfig{TTL: time.Minute})
	j := testJob("ocean")
	q.add(j, false)

	// w1's lease expires: the job fails.
	g1, _ := q.lease("w1")
	clk.advance(2 * time.Minute)
	q.expire()

	// w1's late completion resolves through its old lease, is not a
	// duplicate, and makes the job done.
	if _, done, err := q.jobForLease(g1.leaseID); err != nil || done {
		t.Fatalf("late completion: done=%v err=%v", done, err)
	}
	q.markDone(g1.leaseID)
	if state, _, msg := q.outcome(j.Key()); state != stateDone || msg != "" {
		t.Fatalf("after the late completion: %v %q", state, msg)
	}

	// A second completion is flagged as a duplicate; the state stays.
	_, done, err := q.jobForLease(g1.leaseID)
	if err != nil || !done {
		t.Fatalf("second completion: done=%v err=%v, want a duplicate", done, err)
	}
	q.markDone(g1.leaseID)
	if state, _, _ := q.outcome(j.Key()); state != stateDone {
		t.Fatalf("after the duplicate completion: %v", state)
	}
}

func TestFailIsTerminal(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute})
	j := testJob("ocean")
	q.add(j, false)

	g, _ := q.lease("w1")
	if _, failed, err := q.fail(g.leaseID, "boom"); err != nil || !failed {
		t.Fatalf("failure: failed=%v err=%v", failed, err)
	}
	if state, _, msg := q.outcome(j.Key()); state != stateFailed || msg != "boom" {
		t.Fatalf("terminal outcome: %v %q", state, msg)
	}
	if g, drained := q.lease("w1"); g != nil || !drained {
		t.Fatalf("failed job re-leased: grant=%v drained=%v", g, drained)
	}
	if _, _, err := q.fail("L99999999", "boom"); err != ErrUnknownLease {
		t.Fatalf("fail on a never-issued lease: %v, want ErrUnknownLease", err)
	}
}

func TestStaleFailDoesNotDisturbNewLease(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute})
	a, b := testJob("fmm"), testJob("ocean")
	q.add(a, false)
	q.add(b, false)

	g1, _ := q.lease("w1") // fmm (key order)
	clk.advance(2 * time.Minute)
	q.expire()
	g2, _ := q.lease("w2") // ocean

	// w1's stale failure report must neither overwrite fmm's expiry nor
	// touch the lease w2 holds.
	if _, failed, err := q.fail(g1.leaseID, "stale"); err != nil || failed {
		t.Fatalf("stale fail: failed=%v err=%v", failed, err)
	}
	if state, _, msg := q.outcome(a.Key()); state != stateFailed || msg != "lease expired (worker w1)" {
		t.Fatalf("stale fail rewrote the expired job: %v %q", state, msg)
	}
	if state, _, _ := q.outcome(b.Key()); state != stateLeased {
		t.Fatalf("stale fail disturbed the active lease: %v", state)
	}
	if err := q.heartbeat(g2.leaseID); err != nil {
		t.Fatalf("active lease broken by stale fail: %v", err)
	}

	// Nor may it undo a late completion.
	q.markDone(g1.leaseID)
	if _, failed, err := q.fail(g1.leaseID, "stale"); err != nil || failed {
		t.Fatalf("stale fail after completion: failed=%v err=%v", failed, err)
	}
	if state, _, _ := q.outcome(a.Key()); state != stateDone {
		t.Fatalf("stale fail undid a completion: %v", state)
	}
}

func TestCachedAddIsTerminal(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, queueConfig{TTL: time.Minute})
	q.add(testJob("ocean"), true) // recalled from the store
	q.add(testJob("fmm"), false)

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
