package ginflow

import (
	"context"
	"testing"
	"time"
)

// TestJournalRecoverPublicAPI exercises the durability surface end to
// end through the façade: a journal-backed Manager is shut down mid-run
// (the graceful stand-in for a crash — Close leaves journals
// resumable), a fresh Manager over the same directory recovers the
// session, the merged event bus announces it, and the run completes.
func TestJournalRecoverPublicAPI(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// Tasks of 5 model seconds (250 µs real each at this scale) keep the
	// session safely mid-run when Close fires right after Submit.
	services := noopServices(5.0, "split", "work", "merge")
	def := Diamond(DefaultDiamondSpec(4, 4, false))

	m1, err := New(
		WithJournal(dir),
		WithCluster(ClusterConfig{Nodes: 8, Scale: 50 * time.Microsecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Submit(ctx, def, services); err != nil {
		t.Fatal(err)
	}
	// Stop the process mid-run; the session's journal stays on disk.
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := New(
		WithJournal(dir),
		WithCluster(ClusterConfig{Nodes: 8, Scale: 50 * time.Microsecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	events := m2.Events()
	handles, err := m2.Recover(ctx, services)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(handles) != 1 {
		t.Fatalf("recovered %d handles, want 1", len(handles))
	}
	rep, err := handles[0].Wait(ctx)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	if rep.Statuses["MERGE"] != StatusCompleted {
		t.Fatalf("MERGE is %v after recovery", rep.Statuses["MERGE"])
	}
	m2.Close()

	recovered := false
	for e := range events {
		if e.Kind == EventSessionRecovered && e.SessionID == handles[0].ID() {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("no session-recovered event on Manager.Events")
	}

	// The journal is reclaimed once the session finished cleanly.
	m3, err := New(WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	leftover, err := m3.Recover(ctx, services)
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Fatalf("finished session left %d resumable journals", len(leftover))
	}
}

// TestSessionExecutorOverridePublicAPI: one centralized debug session
// inside a distributed Manager (the ROADMAP mixing item).
func TestSessionExecutorOverridePublicAPI(t *testing.T) {
	m, err := New(WithCluster(ClusterConfig{Nodes: 4, Scale: 50 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, err := m.Submit(context.Background(),
		Diamond(DefaultDiamondSpec(2, 2, false)),
		noopServices(0.1, "split", "work", "merge"),
		WithSessionExecutor(ExecutorCentralized))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executor != string(ExecutorCentralized) {
		t.Fatalf("executor %q, want centralized", rep.Executor)
	}
}

// TestVirtualSubmitRecoverWhileRunning calls Submit and Recover from
// outside the schedule while a session runs on a virtual clock, under
// journal chaos: their write-ahead retries back off on the clock from
// the caller's goroutine, which the Manager brackets with the run
// token. (Race-detector builds check the clock's calling contract on
// every backoff and would panic on an unbracketed one.)
func TestVirtualSubmitRecoverWhileRunning(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	services := noopServices(5.0, "split", "work", "merge")

	// Two unfinished journals, left by a real-clock Manager closed mid-run.
	m1, err := New(
		WithJournal(dir),
		WithCluster(ClusterConfig{Nodes: 8, Scale: 50 * time.Microsecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := m1.Submit(ctx, Diamond(DefaultDiamondSpec(4, 4, false)), services); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := New(
		WithJournal(dir),
		WithCluster(ClusterConfig{Nodes: 8}),
		WithVirtualTime(),
		WithChaos(ChaosConfig{Seed: 5, JournalErrorP: 0.2, JournalTornP: 0.1}),
		WithRetry(RetryConfig{MaxAttempts: 20, BackoffBase: 0.25}),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Closed at the end, not deferred: Close waits for every session, so
	// a deferred Close would turn a contract panic into a hang.
	// A centralized session keeps no journal, so Recover below sees only
	// m1's two; it holds the run token until it finishes.
	long, err := m2.Submit(ctx, Diamond(DefaultDiamondSpec(16, 16, false)), services,
		WithSessionExecutor(ExecutorCentralized))
	if err != nil {
		t.Fatal(err)
	}
	handles, err := m2.Recover(ctx, services)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(handles) != 2 {
		t.Fatalf("recovered %d handles, want 2", len(handles))
	}
	for range 3 {
		h, err := m2.Submit(ctx, Diamond(DefaultDiamondSpec(3, 3, false)), services)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	select {
	case <-long.Done():
		t.Log("the centralized session finished before the last Submit: no overlap exercised")
	default:
	}
	for _, h := range append(handles, long) {
		rep, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("session %d: %v", h.ID(), err)
		}
		if rep.Statuses["MERGE"] != StatusCompleted {
			t.Fatalf("session %d: MERGE is %v", h.ID(), rep.Statuses["MERGE"])
		}
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}
