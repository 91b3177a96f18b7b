package mq

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
)

// collect pulls at least n messages from sub with a deadline.
func collect(t *testing.T, sub *Subscription, n int, timeout time.Duration) []Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var out []Message
	for len(out) < n {
		batch, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("%v with %d/%d messages", err, len(out), n)
		}
		out = append(out, batch...)
	}
	return out
}

func chaosClock(t *testing.T) *cluster.Clock {
	t.Helper()
	return cluster.New(cluster.Config{Nodes: 1, CoresPerNode: 4, Scale: 50 * time.Microsecond}).Clock()
}

// TestChaosDropStillDelivers proves a chaos drop is a redelivery, not a
// loss: even at 100% drop probability every message arrives, because
// the redelivery budget forces it through.
func TestChaosDropStillDelivers(t *testing.T) {
	b := NewQueueBrokerSharded(chaosClock(t), 0.1, 0)
	b.SetChaos(failure.NewSchedule(failure.ChaosConfig{
		Seed: 1, MessageDropP: 1, RedeliverDelay: 0.2, MaxConsecutive: -1,
	}))
	sub, err := b.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	const n = 20
	for i := 0; i < n; i++ {
		if err := b.PublishAtoms("t", strAtoms(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, sub, n, 5*time.Second)
	seen := map[string]bool{}
	for _, m := range got {
		seen[strOf(m)] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct messages, want %d", len(seen), n)
	}
}

// TestChaosDuplicateDelivers proves duplication multiplies deliveries
// without touching the retained log.
func TestChaosDuplicateDelivers(t *testing.T) {
	b := NewLogBrokerSharded(chaosClock(t), 0.1, 0)
	b.SetChaos(failure.NewSchedule(failure.ChaosConfig{
		Seed: 2, MessageDupP: 1, RedeliverDelay: 0.2, MaxConsecutive: -1,
	}))
	sub, err := b.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	const n = 10
	for i := 0; i < n; i++ {
		if err := b.PublishAtoms("t", []hocl.Atom{hocl.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, sub, 2*n, 5*time.Second)
	if len(got) != 2*n {
		t.Fatalf("got %d deliveries, want %d", len(got), 2*n)
	}
	if log := logOf(b, "t"); len(log) != n {
		t.Fatalf("log holds %d messages, want %d — chaos must not touch the log", len(log), n)
	}
}

// TestChaosReorderSwaps drives the reorder fault and checks content
// survives even when order does not.
func TestChaosReorderSwaps(t *testing.T) {
	b := NewQueueBrokerSharded(chaosClock(t), 0.5, 0)
	b.SetChaos(failure.NewSchedule(failure.ChaosConfig{
		Seed: 3, MessageReorderP: 1, MaxConsecutive: -1,
	}))
	sub, err := b.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	const n = 8
	for i := 0; i < n; i++ {
		if err := b.PublishAtoms("t", strAtoms(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, sub, n, 5*time.Second)
	seen := map[string]bool{}
	inOrder := true
	for i, m := range got {
		seen[strOf(m)] = true
		if strOf(m) != fmt.Sprintf("m%d", i) {
			inOrder = false
		}
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct messages, want %d", len(seen), n)
	}
	if inOrder {
		t.Fatal("100%% reorder probability left the sequence fully ordered")
	}
}

// TestPublishObserverSeesEveryPublish checks the test hook fires once
// per accepted publish, including for textual payloads.
func TestPublishObserverSeesEveryPublish(t *testing.T) {
	b := NewLogBrokerSharded(chaosClock(t), 0.1, 0)
	var seen []Message
	b.SetPublishObserver(func(m Message) { seen = append(seen, m) })
	if err := b.PublishAtoms("a", strAtoms("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishAtoms("b", []hocl.Atom{hocl.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0].Topic != "a" || seen[1].Topic != "b" {
		t.Fatalf("observer saw %+v", seen)
	}
	b.SetPublishObserver(nil)
	if err := b.PublishAtoms("a", strAtoms("y")); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatal("observer still firing after uninstall")
	}
}
