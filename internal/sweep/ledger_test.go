package sweep

import (
	"context"
	"errors"
	"testing"

	"spcoh/internal/sim"
)

func TestFailureLedgerRecordsAndClears(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testMatrix().Jobs()
	bad := jobs[0].Key()

	// One job fails: it lands in the ledger.
	rep := Run(context.Background(), jobs, func(j Job) (*sim.Result, error) {
		if j.Key() == bad {
			return nil, errors.New("injected")
		}
		return fakeResult(j), nil
	}, Options{Workers: 2, Store: store})
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	failed := store.FailedCells()
	if len(failed) != 1 || failed[bad] != "injected" {
		t.Fatalf("ledger after failing run: %v", failed)
	}

	// The ledger survives a store reopen (it lives in the manifest).
	store2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if failed := store2.FailedCells(); len(failed) != 1 {
		t.Fatalf("ledger lost on reopen: %v", failed)
	}

	// A successful rerun clears the entry.
	rep = Run(context.Background(), jobs, fakeRun, Options{Workers: 2, Store: store2})
	if rep.Failed != 0 {
		t.Fatalf("healthy rerun failed %d jobs", rep.Failed)
	}
	if failed := store2.FailedCells(); len(failed) != 0 {
		t.Fatalf("ledger not cleared by success: %v", failed)
	}
}

func TestCancellationNeverReachesLedger(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every job sees a canceled context
	rep := Run(ctx, testMatrix().Jobs(), fakeRun, Options{Workers: 2, Store: store})
	if rep.Failed == 0 {
		t.Fatal("canceled run should report failed jobs")
	}
	if failed := store.FailedCells(); len(failed) != 0 {
		t.Fatalf("cancellation polluted the failure ledger: %v", failed)
	}
}

func TestSweepRegistryPersists(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := testMatrix()
	b := testMatrix()
	b.Seeds = []int64{7}
	if err := store.AddSweep(a); err != nil {
		t.Fatal(err)
	}
	if err := store.AddSweep(b); err != nil {
		t.Fatal(err)
	}
	if err := store.AddSweep(a); err != nil { // idempotent
		t.Fatal(err)
	}
	ids := store.SweepIDs()
	if len(ids) != 2 {
		t.Fatalf("sweep IDs: %v", ids)
	}

	// A fresh open (a restarted server) sees both, content intact.
	store2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Matrix{a, b} {
		got, ok := store2.Sweep(m.Digest())
		if !ok {
			t.Fatalf("sweep %.12s lost on reopen", m.Digest())
		}
		if got.Digest() != m.Digest() {
			t.Fatalf("sweep %.12s mutated on reopen", m.Digest())
		}
	}
	// The registry coexists with the singular local-run matrix field.
	if err := store2.SetMatrix(a); err != nil {
		t.Fatal(err)
	}
	store3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := store3.Matrix(); !ok || m.Digest() != a.Digest() {
		t.Fatal("local matrix field clobbered by the sweep registry")
	}
	if len(store3.SweepIDs()) != 2 {
		t.Fatal("sweep registry clobbered by SetMatrix")
	}
}
