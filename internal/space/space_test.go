package space

import (
	"context"
	"testing"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
)

func completedSub(t *testing.T, result string) *hocl.Solution {
	t.Helper()
	sol, err := hocl.Parse(`<SRC:<>, DST:<>, RES:<"` + result + `">>`)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// pushTask publishes a task's full status the way an agent does.
func pushTask(s *Space, name string, sub *hocl.Solution) {
	s.ApplyMessage(mq.Message{Atoms: []hocl.Atom{hocl.Tuple{hocl.Ident(name), sub}}})
}

func TestStatusAndResults(t *testing.T) {
	s := New()
	if got := s.Status("T1"); got != hoclflow.StatusIdle {
		t.Errorf("unknown task status = %v", got)
	}
	pushTask(s, "T1", completedSub(t, "out"))
	if got := s.Status("T1"); got != hoclflow.StatusCompleted {
		t.Errorf("status = %v", got)
	}
	res := s.Results("T1")
	if len(res) != 1 || !res[0].Equal(hocl.Str("out")) {
		t.Errorf("results = %v", res)
	}
	if s.Results("T9") != nil {
		t.Error("unknown task has results")
	}
}

func TestMarkersAndTriggered(t *testing.T) {
	s := New()
	for _, m := range []hocl.Atom{
		hoclflow.TriggerMarker("a1"),
		hoclflow.TriggerMarker("a1"), // duplicate collapses
		hoclflow.TriggerMarker("a2"),
		hocl.Ident("NOISE"),
	} {
		s.ApplyMessage(mq.Message{Atoms: []hocl.Atom{m}})
	}
	got := s.Triggered()
	if len(got) != 2 || got[0] != "a1" || got[1] != "a2" {
		t.Errorf("Triggered = %v", got)
	}
	if snap := s.Snapshot(); snap.Len() != 3 {
		t.Errorf("markers = %v", snap)
	}
}

func TestSnapshotIsDetached(t *testing.T) {
	s := New()
	pushTask(s, "T1", completedSub(t, "x"))
	snap := s.Snapshot()
	if snap.Len() != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	// Mutating the snapshot must not affect the space.
	snap.Add(hocl.Ident("JUNK"))
	if s.Snapshot().Len() != 1 {
		t.Error("snapshot aliased space state")
	}
}

// molecules parses a literal status payload.
func molecules(t *testing.T, src string) []hocl.Atom {
	t.Helper()
	sol, err := hocl.Parse("<" + src + ">")
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return sol.Atoms()
}

func TestApplyPayloads(t *testing.T) {
	s := New()
	if !s.ApplyMessage(mq.Message{Atoms: molecules(t, `T1:<SRC:<>, RES:<"r">>, TRIGGER:"a1"`)}) {
		t.Fatal("valid payload rejected")
	}
	if got := s.Status("T1"); got != hoclflow.StatusCompleted {
		t.Errorf("status = %v", got)
	}
	if got := s.Triggered(); len(got) != 1 || got[0] != "a1" {
		t.Errorf("triggered = %v", got)
	}
	// A message without atoms is a no-op: nothing folds in.
	before := s.Snapshot()
	if s.ApplyMessage(mq.Message{}) {
		t.Error("message without atoms reported as applied")
	}
	if !s.Snapshot().Equal(before) {
		t.Error("message without atoms changed the space")
	}
}

func TestWaitCompleted(t *testing.T) {
	s := New()
	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { done <- s.WaitCompleted(ctx, []string{"T1", "T2"}) }()

	pushTask(s, "T1", completedSub(t, "a"))
	select {
	case err := <-done:
		t.Fatalf("WaitCompleted returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	pushTask(s, "T2", completedSub(t, "b"))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitCompleted: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCompleted never returned")
	}
}

func TestWaitCompletedHonoursContext(t *testing.T) {
	s := New()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.WaitCompleted(ctx, []string{"NEVER"}); err == nil {
		t.Fatal("want context error")
	}
}

func TestServeConsumesBrokerTopic(t *testing.T) {
	clock := cluster.NewClock(10 * time.Microsecond)
	broker := mq.NewQueueBrokerSharded(clock, 0.001, 0)
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Serve(ctx, broker, "")

	// Give Serve a moment to subscribe before publishing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := broker.PublishAtoms(DefaultTopic, molecules(t, `T1:<SRC:<>, RES:<"ok">>`)); err != nil {
			t.Fatal(err)
		}
		if s.Status("T1") == hoclflow.StatusCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("space never consumed the update")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConsumedCountsEveryMessage: Consumed reaches the broker's publish
// count for the topic, messages that change nothing included, which is
// what a session waits on before it reads the final state.
func TestConsumedCountsEveryMessage(t *testing.T) {
	clock := cluster.NewClock(10 * time.Microsecond)
	broker := mq.NewQueueBrokerSharded(clock, 0.001, 0)
	s := New()
	if err := s.Attach(broker, ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Serve(ctx, broker, "")

	update := molecules(t, `T1:<SRC:<>, RES:<"ok">>`)
	for _, atoms := range [][]hocl.Atom{update, update, nil} {
		if err := broker.PublishAtoms(DefaultTopic, atoms); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Consumed() < broker.PublishedPrefix(DefaultTopic) {
		if time.Now().After(deadline) {
			t.Fatalf("consumed %d of %d", s.Consumed(), broker.PublishedPrefix(DefaultTopic))
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Consumed(); got != 3 {
		t.Fatalf("Consumed = %d, want 3", got)
	}
	if s.Status("T1") != hoclflow.StatusCompleted {
		t.Fatalf("T1 is %v after its push was consumed", s.Status("T1"))
	}
}
