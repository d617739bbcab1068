package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCancelledWorkersStartNoSolve: a worker that finds the daemon cancelled
// must not start another solve, even though Go's select picks at random
// between a cancelled context and a ready queue. Each job it draws stays
// queued in the ledger for the restarted daemon. 64 draws on a loop that
// relied on select alone would all miss the queue with probability 2^-64.
func TestCancelledWorkersStartNoSolve(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		if _, err := s.submit(&Spec{Topology: "figure1", Heuristic: "dp", Pairs: 3, Seed: seed}); err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
	}
	s.baseCancel()
	for i := 0; i < 64; i++ {
		s.workerLoop()
	}
	s.Start()
	s.wg.Wait()
	if runs := s.met.solverRuns.Value(); runs != 0 {
		t.Fatalf("cancelled daemon started %d solves", runs)
	}
	recs := loadQueue(t, cfg.StateDir)
	if len(recs) != 8 {
		t.Fatalf("ledger holds %d jobs, want 8", len(recs))
	}
	for _, rec := range recs {
		if rec.State != stateQueued {
			t.Fatalf("job %s persisted as %s, want queued", rec.ID, rec.State)
		}
	}
	s2 := newServer(t, cfg)
	if got := len(s2.queue); got != 8 {
		t.Fatalf("restarted daemon re-admitted %d jobs, want 8", got)
	}
}

// TestResultsWriteFailureIsNotServed: when the results store cannot write,
// the job fails with the persist error, no later submission of its key is
// answered from the cache, and a restarted daemon holds no result for it.
func TestResultsWriteFailureIsNotServed(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	failResultWrites(t, s, "ckpt-write:%1")
	s.Start()
	var key uint64
	for i := 0; i < 2; i++ {
		j, err := s.submit(figure1Spec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if j.getState() == stateDone {
			t.Fatalf("submission %d answered from the cache", i)
		}
		j = waitTerminal(t, s, j.id, 60*time.Second)
		if j.getState() != stateFailed || !strings.Contains(j.errMsg, "persist result") || !strings.Contains(j.errMsg, "ckpt-write fault") {
			t.Fatalf("job %s: %s (%s), want failed with the injected persist error", j.id, j.getState(), j.errMsg)
		}
		key = j.key
	}
	if hits := s.met.cacheHits.Value(); hits != 0 {
		t.Fatalf("%d cache hits after failed result writes", hits)
	}
	if runs := s.met.solverRuns.Value(); runs != 2 {
		t.Fatalf("%d solver runs, want 2", runs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2 := newServer(t, cfg)
	if sr := s2.result(key); sr != nil || s2.results.Len() != 0 {
		t.Fatalf("restarted daemon holds %d results (key %016x: %v)", s2.results.Len(), key, sr)
	}
	for _, id := range []string{"j000001", "j000002"} {
		if j := s2.jobByID(id); j == nil || j.getState() != stateFailed {
			t.Fatalf("restarted daemon lost failed job %s", id)
		}
	}
}

// TestNewRefusesLegacyStateFiles: a state directory written before the
// results store and the queue shared the record format (plain-JSON
// results.json, GAPCKP queue.ckpt) is refused with an error naming the
// file, never opened as an empty daemon.
func TestNewRefusesLegacyStateFiles(t *testing.T) {
	for _, name := range []string{"results.json", "queue.ckpt"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(t)
			if err := os.WriteFile(filepath.Join(cfg.StateDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg)
			if err == nil {
				s.Kill()
				t.Fatalf("daemon started over a legacy %s", name)
			}
			if !strings.Contains(err.Error(), filepath.Join(cfg.StateDir, name)) {
				t.Fatalf("error does not name %s: %v", name, err)
			}
		})
	}
}
