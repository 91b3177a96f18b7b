package mq

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/hocl"
)

func TestShardKey(t *testing.T) {
	cases := map[string]string{
		"wf3.sa.T1":         "wf3.",
		"wf3.ginflow.space": "wf3.",
		"wf12345.sa.T1":     "wf12345.",
		"sa.T1":             "",
		"ginflow.space":     "",
		"wf.sa.T1":          "", // no digits
		"wfX.sa.T1":         "",
		"wf3":               "", // no dot after the id
		"workflow.topic":    "",
		"":                  "",
	}
	for topic, want := range cases {
		if got := ShardKey(topic); got != want {
			t.Errorf("ShardKey(%q) = %q, want %q", topic, got, want)
		}
	}
}

// TestSessionTopicsShareAShard: all topics of one session namespace
// route to the same shard (a session's traffic is self-contained),
// while un-namespaced topics hash individually so standalone traffic
// spreads over the shard set instead of serializing on one shard.
func TestSessionTopicsShareAShard(t *testing.T) {
	b := NewQueueBrokerSharded(testClock(), 0.001, 8)
	if len(b.shards) != 8 {
		t.Fatalf("%d shards, want 8", len(b.shards))
	}
	s1 := b.shardIndex("wf7.sa.T1")
	if got := b.shardIndex("wf7.sa.T99"); got != s1 {
		t.Errorf("inbox topics of one session on different shards: %d vs %d", got, s1)
	}
	if got := b.shardIndex("wf7.ginflow.space"); got != s1 {
		t.Errorf("space topic on a different shard than the inboxes: %d vs %d", got, s1)
	}
	shardsHit := map[int]bool{}
	for i := 0; i < 32; i++ {
		shardsHit[b.shardIndex(fmt.Sprintf("sa.T%d", i))] = true
	}
	if len(shardsHit) < 2 {
		t.Errorf("32 standalone topics all hashed to %d shard(s): the default-shard serialization is back", len(shardsHit))
	}
}

// BenchmarkStandaloneShardSpread is the regression benchmark for the
// standalone-traffic routing fix: 8 un-namespaced topics bursting
// through a sharded broker with modelled occupancy. Before the fix all
// of them shared the default shard, so the burst serialized behind one
// occupancy queue; with per-topic hashing the delivery wall time drops
// by roughly the shard spread.
func BenchmarkStandaloneShardSpread(b *testing.B) {
	clock := cluster.NewClock(50 * time.Microsecond)
	br := NewQueueBrokerSharded(clock, 0.001, 8)
	br.SetServiceTime(0.05) // occupancy is the serialization under test
	const topics = 8
	const perTopic = 16
	subs := make([]*Subscription, topics)
	names := make([]string, topics)
	for i := range subs {
		names[i] = fmt.Sprintf("sa.bench%d", i)
		s, err := br.Subscribe(names[i])
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for j := 0; j < perTopic; j++ {
			for i := 0; i < topics; i++ {
				if err := br.PublishAtoms(names[i], strAtoms("x")); err != nil {
					b.Fatal(err)
				}
			}
		}
		for i := 0; i < topics; i++ {
			got := 0
			for got < perTopic {
				batch, err := subs[i].Next(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				got += len(batch)
			}
		}
	}
}

// TestCrossShardDelivery: pub/sub works for namespaced topics on every
// shard, and sessions spread over more than one shard.
func TestCrossShardDelivery(t *testing.T) {
	b := NewQueueBrokerSharded(testClock(), 0.001, 4)
	const sessions = 16
	subs := make([]*Subscription, sessions)
	shardsHit := map[int]bool{}
	for i := range subs {
		topic := fmt.Sprintf("wf%d.sa.T1", i+1)
		shardsHit[b.shardIndex(topic)] = true
		s, err := b.Subscribe(topic)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	if len(shardsHit) < 2 {
		t.Errorf("16 sessions all hashed to %d shard(s)", len(shardsHit))
	}
	for i := range subs {
		if err := b.PublishAtoms(fmt.Sprintf("wf%d.sa.T1", i+1), strAtoms(fmt.Sprintf("m%d", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range subs {
		m := recvOne(t, s)
		if want := fmt.Sprintf("m%d", i+1); strOf(m) != want {
			t.Errorf("session %d received %q, want %q", i+1, strOf(m), want)
		}
	}
}

// TestPurgeTopicsAcrossShards is the regression test for namespace
// cleanup on a sharded broker: purging one session's prefix must remove
// its state from whichever shard held it and leave every other shard's
// state — and every other session — untouched, for subscriber tables,
// counters and retained logs alike.
func TestPurgeTopicsAcrossShards(t *testing.T) {
	clock := cluster.NewClock(time.Nanosecond)
	b := NewLogBrokerSharded(clock, 1e-9, 4)
	const sessions = 12
	for i := 1; i <= sessions; i++ {
		topic := fmt.Sprintf("wf%d.sa.T1", i)
		if _, err := b.Subscribe(topic); err != nil {
			t.Fatal(err)
		}
		if err := b.PublishAtoms(topic, strAtoms("X")); err != nil {
			t.Fatal(err)
		}
		if err := b.PublishAtoms(fmt.Sprintf("wf%d.ginflow.space", i), strAtoms("Y")); err != nil {
			t.Fatal(err)
		}
	}

	if n := b.PurgeTopics("wf1."); n != 2 {
		t.Errorf("purged %d topics, want 2", n)
	}
	if got := b.Topics("wf1."); len(got) != 0 {
		t.Errorf("Topics(wf1.) = %v after purge", got)
	}
	if got := logOf(b, "wf1.sa.T1"); len(got) != 0 {
		t.Errorf("purged log survives: %v", got)
	}
	if got := b.PublishedPrefix("wf1."); got != 0 {
		t.Errorf("purged counters survive: %d", got)
	}
	// Every other session keeps its two topics, each holding state only
	// on the shard it routes to.
	for i, sh := range b.shards {
		seen := map[string]bool{}
		b.shardTopics(sh, "", seen)
		b.logTopics(i, "", seen)
		for topic := range seen {
			if want := b.shardIndex(topic); want != i {
				t.Errorf("topic %s holds state on shard %d, routes to %d", topic, i, want)
			}
		}
	}
	if all := b.Topics(""); len(all) != 2*(sessions-1) {
		t.Errorf("topics after purge: %d, want %d", len(all), 2*(sessions-1))
	}
}

// TestShardsIsolateOccupancy: the modelled middleware occupancy is per
// shard — a burst on one session's shard must not delay another
// session's delivery, which is the scaling property the sharding exists
// for.
func TestShardsIsolateOccupancy(t *testing.T) {
	clock := cluster.NewClock(time.Millisecond)
	b := NewQueueBrokerSharded(clock, 1, 64) // 1 model-second latency
	b.SetServiceTime(5)                      // 5 model seconds occupancy per message

	// Find two session namespaces on different shards.
	busy, quiet := "wf1.", ""
	for i := 2; i < 100; i++ {
		ns := fmt.Sprintf("wf%d.", i)
		if b.shardIndex(ns+"t") != b.shardIndex(busy+"t") {
			quiet = ns
			break
		}
	}
	if quiet == "" {
		t.Fatal("could not find two namespaces on distinct shards")
	}

	busySub, _ := b.Subscribe(busy + "t")
	quietSub, _ := b.Subscribe(quiet + "t")
	// 40 messages × 5 model seconds back up the busy shard for ~200 ms.
	for i := 0; i < 40; i++ {
		if err := b.PublishAtoms(busy+"t", strAtoms("x")); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := b.PublishAtoms(quiet+"t", strAtoms("y")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, quietSub)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("quiet shard delivery took %v: delayed by the busy shard's backlog", elapsed)
	}
	_ = busySub
}

// TestBatchDelivery: a burst of publishes arrives as batches preserving
// publication order.
func TestBatchDelivery(t *testing.T) {
	clock := cluster.NewClock(time.Nanosecond)
	b := NewQueueBrokerSharded(clock, 1e-9, 0)
	b.SetServiceTime(0)
	sub, err := b.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			_ = b.PublishAtoms("t", strAtoms(fmt.Sprintf("m%d", i)))
		}
	}()
	received := 0
	sawMulti := false
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for received < n {
		batch, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("received %d of %d: %v", received, n, err)
		}
		if len(batch) > 1 {
			sawMulti = true
		}
		for _, m := range batch {
			if want := fmt.Sprintf("m%d", received); strOf(m) != want {
				t.Fatalf("out of order: got %q, want %q", strOf(m), want)
			}
			received++
		}
	}
	// A burst against a briefly busy consumer should coalesce at least
	// once; this is the batching the hand-off exists for. (Not asserted
	// strictly per batch — scheduling decides — but over 500 messages a
	// single-message-only stream would mean batching never engaged.)
	if !sawMulti {
		t.Log("note: no multi-message batch observed (scheduling-dependent)")
	}
}

// TestBatchDeliveryConcurrentPublishers hammers one subscriber from many
// publishers: no message may be lost or duplicated between the pending
// queue and the batches Next cuts from it.
func TestBatchDeliveryConcurrentPublishers(t *testing.T) {
	clock := cluster.NewClock(time.Nanosecond)
	b := NewQueueBrokerSharded(clock, 1e-9, 0)
	b.SetServiceTime(0)
	sub, err := b.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	const publishers = 8
	const perPub = 200
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				if err := b.PublishAtoms("t", []hocl.Atom{hocl.Int(int64(p*perPub + i))}); err != nil {
					t.Errorf("publish: %v", err)
				}
			}
		}(p)
	}
	seen := make(map[int64]int, publishers*perPub)
	total := 0
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for total < publishers*perPub {
		batch, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("received %d of %d: %v", total, publishers*perPub, err)
		}
		for _, m := range batch {
			seen[int64(m.Atoms[0].(hocl.Int))]++
			total++
		}
	}
	wg.Wait()
	for v, count := range seen {
		if count != 1 {
			t.Errorf("message %d delivered %d times", v, count)
		}
	}
}
