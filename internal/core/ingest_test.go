package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/tracestore"
)

func TestIngestSurfacesTransientPastRetryBound(t *testing.T) {
	p := faults.Profile{Seed: 7, TransientRate: 1}
	probe, err := faults.New(p, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find one slot whose delivery fails twice and one that fails once.
	var twice, once time.Time
	for s := 0; twice.IsZero() || once.IsZero(); s++ {
		at := dEpoch.Add(time.Duration(s) * time.Hour)
		switch probe.Feed("a", at, 100)[0].Failures {
		case 2:
			twice = at
		case 1:
			once = at
		}
	}

	inj, err := faults.New(p, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(tracestore.Config{Step: time.Hour})
	rt, err := NewRuntime(New(Config{}), store, budTree(t), RuntimeConfig{
		Faults: inj, IngestRetries: 1, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	rt.sleep = func(d time.Duration) { slept = append(slept, d) }

	// One failure is within a single retry: the reading lands.
	retries := obsIngestRetries.Value()
	if err := rt.Ingest("a", once, 100); err != nil {
		t.Fatalf("one-failure delivery: %v", err)
	}
	if got := obsIngestRetries.Value() - retries; got != 1 || len(slept) != 1 {
		t.Fatalf("one-failure delivery: %d retries, sleeps %v; want 1 and 1", got, slept)
	}

	// Two failures outlast one retry: ErrTransient surfaces after the one
	// retry it was allowed, and nothing lands.
	slept, retries = nil, obsIngestRetries.Value()
	err = rt.Ingest("a", twice, 100)
	if !errors.Is(err, tracestore.ErrTransient) {
		t.Fatalf("two-failure delivery with one retry: err = %v, want ErrTransient", err)
	}
	if got := obsIngestRetries.Value() - retries; got != 1 || len(slept) != 1 {
		t.Fatalf("two-failure delivery: %d retries, sleeps %v; want 1 and 1", got, slept)
	}
	if _, q, err := store.SnapshotQuality("a", twice, twice.Add(time.Hour)); err != nil || q.Coverage != 0 {
		t.Fatalf("failed delivery landed in the store: coverage %v, %v", q.Coverage, err)
	}
}

func TestIngestFaultedSteadyStateAllocs(t *testing.T) {
	const step = 30 * time.Minute
	tree := budTree(t)
	inj, err := faults.New(faults.Light(1), step, tree)
	if err != nil {
		t.Fatal(err)
	}
	// A one-day retention, so every new slot advances each ring.
	store := tracestore.New(tracestore.Config{Step: step, Retention: 24 * time.Hour})
	rt, err := NewRuntime(New(Config{}), store, tree, RuntimeConfig{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = fmt.Sprintf("i%02d", i)
	}
	slot := 0
	for ; slot < 3*48; slot++ {
		for _, id := range ids {
			if err := rt.Ingest(id, dEpoch.Add(time.Duration(slot)*step), 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One run ingests one slot for every id: AllocsPerRun floors its mean,
	// so a per-reading allocation must count whole per run to show.
	allocs := testing.AllocsPerRun(200, func() {
		for _, id := range ids {
			if err := rt.Ingest(id, dEpoch.Add(time.Duration(slot)*step), 100); err != nil {
				t.Fatal(err)
			}
		}
		slot++
	})
	if allocs != 0 {
		t.Fatalf("faulted Ingest allocates %v per steady-state slot of %d readings, want 0", allocs, len(ids))
	}
}
