package mq

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/hocl"
	"ginflow/internal/obs"
)

// testClock is the discrete-event virtual clock: latency modelling
// stays active (messages fall due at modelled instants) but no real
// time passes — consumers pull via Next and the clock jumps straight to
// each due instant. Tests exercising real-clock waits build their own
// cluster.NewClock.
func testClock() *cluster.Clock {
	return cluster.NewVirtualClock()
}

// recvOne pulls the next delivered message with a single Next call.
func recvOne(t *testing.T, sub *Subscription) Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	batch, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("waiting for message: %v", err)
	}
	if len(batch) != 1 {
		t.Fatalf("expected a single due message, got %d", len(batch))
	}
	return batch[0]
}

// strAtoms wraps an opaque test payload as a one-string message body;
// strOf reads it back.
func strAtoms(s string) []hocl.Atom { return []hocl.Atom{hocl.Str(s)} }

func strOf(m Message) string {
	if len(m.Atoms) != 1 {
		return fmt.Sprintf("<%d atoms>", len(m.Atoms))
	}
	s, _ := m.Atoms[0].(hocl.Str)
	return string(s)
}

// logOf reads a log broker's history, which never fails.
func logOf(b *LogBroker, topic string) []Message {
	log, _ := b.Log(topic)
	return log
}

func brokers(t *testing.T) map[string]Broker {
	return map[string]Broker{
		"queue": NewQueueBrokerSharded(testClock(), 0.001, 0),
		"log":   NewLogBrokerSharded(testClock(), 0.001, 0),
	}
}

func TestPublishSubscribe(t *testing.T) {
	for name, b := range brokers(t) {
		t.Run(name, func(t *testing.T) {
			sub, err := b.Subscribe("sa.T1")
			if err != nil {
				t.Fatal(err)
			}
			if err := b.PublishAtoms("sa.T1", strAtoms("RES:<42>")); err != nil {
				t.Fatal(err)
			}
			m := recvOne(t, sub)
			if strOf(m) != "RES:<42>" || m.Topic != "sa.T1" {
				t.Errorf("got %+v", m)
			}
			if b.PublishedPrefix("") != 1 {
				t.Errorf("Published = %d", b.PublishedPrefix(""))
			}
		})
	}
}

func TestTopicIsolation(t *testing.T) {
	for name, b := range brokers(t) {
		t.Run(name, func(t *testing.T) {
			s1, _ := b.Subscribe("a")
			s2, _ := b.Subscribe("b")
			if err := b.PublishAtoms("a", strAtoms("x")); err != nil {
				t.Fatal(err)
			}
			recvOne(t, s1)
			if m := s2.TryNext(); m != nil {
				t.Errorf("topic b received %+v", m)
			}
		})
	}
}

func TestFanOutToMultipleSubscribers(t *testing.T) {
	for name, b := range brokers(t) {
		t.Run(name, func(t *testing.T) {
			s1, _ := b.Subscribe("t")
			s2, _ := b.Subscribe("t")
			if err := b.PublishAtoms("t", strAtoms("m")); err != nil {
				t.Fatal(err)
			}
			recvOne(t, s1)
			recvOne(t, s2)
		})
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	for name, b := range brokers(t) {
		t.Run(name, func(t *testing.T) {
			sub, _ := b.Subscribe("t")
			sub.Cancel()
			sub.Cancel() // idempotent
			if err := b.PublishAtoms("t", strAtoms("m")); err != nil {
				t.Fatal(err)
			}
			if _, err := sub.Next(context.Background()); err != ErrCancelled {
				t.Errorf("cancelled subscription: Next = %v, want ErrCancelled", err)
			}
		})
	}
}

// pullCase is one kind of subscription a consumer can hold: fed by a
// real-clock broker, by a virtual-clock broker, or by a push function
// (the transport client). publish feeds one message to sub; clock is
// the clock the consumer runs on.
type pullCase struct {
	name    string
	clock   *cluster.Clock
	sub     *Subscription
	publish func(payload string)
}

func pullCases(t *testing.T) []pullCase {
	t.Helper()
	brokerFed := func(name string, clock *cluster.Clock) pullCase {
		b := NewQueueBrokerSharded(clock, 0.001, 0)
		sub, err := b.Subscribe("t")
		if err != nil {
			t.Fatal(err)
		}
		return pullCase{name, clock, sub, func(p string) {
			if err := b.PublishAtoms("t", strAtoms(p)); err != nil {
				t.Error(err)
			}
		}}
	}
	sub, push := NewPushSubscription(nil)
	return []pullCase{
		brokerFed("real clock", cluster.NewClock(time.Microsecond)),
		brokerFed("virtual clock", cluster.NewVirtualClock()),
		{"push-fed", cluster.NewClock(time.Microsecond), sub, func(p string) {
			push([]Message{{Topic: "t", Atoms: strAtoms(p)}})
		}},
	}
}

// TestFirstMessageComesOutOfFirstNext: a subscription owns no goroutine
// that could take a message before the consumer asks for it, so the
// first publish is what the first Next returns — no warm-up.
func TestFirstMessageComesOutOfFirstNext(t *testing.T) {
	for _, tc := range pullCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.sub.Cancel()
			tc.publish("first")
			// Time for anything but the consumer to take the message.
			time.Sleep(5 * time.Millisecond)
			if m := recvOne(t, tc.sub); strOf(m) != "first" {
				t.Errorf("first Next returned %+v", m)
			}
		})
	}
}

// TestCancelWakesParkedNext: Cancel from another goroutine ends a Next
// parked on an empty queue with ErrCancelled, whichever way it parked.
func TestCancelWakesParkedNext(t *testing.T) {
	for _, tc := range pullCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			errc := make(chan error, 1)
			tc.clock.Go(func() {
				_, err := tc.sub.Next(context.Background())
				errc <- err
			})
			// A virtual clock grants Enter only once the consumer has
			// parked and released the run token; elsewhere give it a
			// moment (a Cancel that wins the race is
			// TestCancelStopsDelivery's case).
			time.Sleep(5 * time.Millisecond)
			tc.clock.Enter()
			tc.sub.Cancel()
			tc.clock.Exit()
			select {
			case err := <-errc:
				if err != ErrCancelled {
					t.Errorf("Next = %v, want ErrCancelled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Next still parked after Cancel")
			}
		})
	}
}

// TestSubscriptionsOwnNoGoroutine: opening subscriptions must not start
// goroutines, and cancelling them must leave none behind.
func TestSubscriptionsOwnNoGoroutine(t *testing.T) {
	b := NewQueueBrokerSharded(cluster.NewClock(time.Microsecond), 0.001, 0)
	before := runtime.NumGoroutine()
	subs := make([]*Subscription, 256)
	for i := range subs {
		sub, err := b.Subscribe(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	if open := runtime.NumGoroutine(); open > before {
		t.Errorf("256 open subscriptions raised the goroutine count from %d to %d", before, open)
	}
	for _, sub := range subs {
		sub.Cancel()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine count %d after Cancel, %d before Subscribe", after, before)
	}
}

func TestCloseRejectsPublish(t *testing.T) {
	for name, b := range brokers(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.PublishAtoms("t", strAtoms("m")); err != ErrClosed {
				t.Errorf("publish after close: %v", err)
			}
			if _, err := b.Subscribe("t"); err != ErrClosed {
				t.Errorf("subscribe after close: %v", err)
			}
		})
	}
}

// TestQueueBrokerIsVolatile: messages published while nobody listens are
// lost — the ActiveMQ-mode behaviour that rules out crash recovery.
func TestQueueBrokerIsVolatile(t *testing.T) {
	b := NewQueueBrokerSharded(testClock(), 0.001, 0)
	if err := b.PublishAtoms("t", strAtoms("lost")); err != nil {
		t.Fatal(err)
	}
	sub, _ := b.Subscribe("t")
	if m := sub.TryNext(); m != nil {
		t.Errorf("late subscriber received %+v", m)
	}
}

// TestLogBrokerPersistsAndReplays: the Kafka-mode capability §IV-B
// recovery relies on.
func TestLogBrokerPersistsAndReplays(t *testing.T) {
	b := NewLogBrokerSharded(testClock(), 0.001, 0)
	for i := 0; i < 3; i++ {
		if err := b.PublishAtoms("sa.T1", strAtoms(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	b.PublishAtoms("sa.T2", strAtoms("other"))

	log := logOf(b, "sa.T1")
	if len(log) != 3 {
		t.Fatalf("log has %d messages", len(log))
	}
	for i, m := range log {
		if m.Offset != i {
			t.Errorf("offset[%d] = %d", i, m.Offset)
		}
		if strOf(m) != fmt.Sprintf("m%d", i) {
			t.Errorf("payload[%d] = %q (order must be preserved)", i, strOf(m))
		}
	}
	// Log returns a copy: mutating it must not corrupt the broker.
	log[0].Atoms[0] = hocl.Str("tampered")
	if strOf(logOf(b, "sa.T1")[0]) != "m0" {
		t.Error("Log exposed internal state")
	}
	if got := logOf(b, "nosuch"); len(got) != 0 {
		t.Errorf("unknown topic log: %v", got)
	}
}

func TestLatencyIsModelled(t *testing.T) {
	clock := cluster.NewClock(time.Millisecond)
	b := NewQueueBrokerSharded(clock, 20, 0) // 20 model seconds = 20 ms real
	sub, _ := b.Subscribe("t")
	start := time.Now()
	b.PublishAtoms("t", strAtoms("m"))
	recvOne(t, sub)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("delivery took %v, want >= ~20ms of modelled latency", elapsed)
	}
}

func TestDefaultLatencies(t *testing.T) {
	// The Kafka-mode broker must model a higher per-message cost than the
	// ActiveMQ-mode broker (Fig. 14: ~4x slower executions).
	if DefaultLogLatency < 3*DefaultQueueLatency {
		t.Errorf("log latency %v not substantially above queue latency %v",
			DefaultLogLatency, DefaultQueueLatency)
	}
}

func TestNewBrokerKinds(t *testing.T) {
	clock := testClock()
	if b, err := NewBroker(KindQueue, clock); err != nil || b == nil {
		t.Errorf("queue kind: %v", err)
	}
	b, err := NewBroker(KindLog, clock)
	if err != nil {
		t.Fatalf("log kind: %v", err)
	}
	if _, ok := b.(Replayable); !ok {
		t.Error("kafka-kind broker must be Replayable")
	}
	if _, err := NewBroker("rabbitmq", clock); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestConcurrentPublishersAndSubscribers(t *testing.T) {
	// A real clock on purpose: this soaks concurrent publishers against
	// the subscriber queues, which a virtual clock's one-at-a-time
	// schedule would serialise.
	b := NewLogBrokerSharded(cluster.NewClock(10*time.Microsecond), 0.0001, 0)
	const (
		topics     = 8
		publishers = 4
		perPub     = 50
	)
	subs := make([]*Subscription, topics)
	for i := range subs {
		s, err := b.Subscribe(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				topic := fmt.Sprintf("t%d", (p+i)%topics)
				if err := b.PublishAtoms(topic, strAtoms("m")); err != nil {
					t.Errorf("publish: %v", err)
				}
			}
		}(p)
	}
	wg.Wait()
	total := 0
	deadline := time.After(5 * time.Second)
	for total < publishers*perPub {
		progressed := false
		for _, s := range subs {
			if batch := s.TryNext(); batch != nil {
				total += len(batch)
				progressed = true
			}
		}
		if !progressed {
			select {
			case <-deadline:
				t.Fatalf("received %d of %d messages", total, publishers*perPub)
			case <-time.After(time.Millisecond):
			}
		}
	}
	if got := b.PublishedPrefix(""); got != int64(publishers*perPub) {
		t.Errorf("Published = %d", got)
	}
}

func TestPublishAtomsDeliversStructurally(t *testing.T) {
	for name, b := range brokers(t) {
		t.Run(name, func(t *testing.T) {
			sub, err := b.Subscribe("sa.T1")
			if err != nil {
				t.Fatal(err)
			}
			payload := []hocl.Atom{hocl.Tuple{hocl.Ident("RES"), hocl.NewSolution(hocl.Int(42))}}
			if err := b.PublishAtoms("sa.T1", payload); err != nil {
				t.Fatal(err)
			}
			m := recvOne(t, sub)
			if len(m.Atoms) != 1 || !m.Atoms[0].Equal(payload[0]) {
				t.Errorf("atoms = %v", m.Atoms)
			}
			if got := m.Atoms[0].String(); got != "RES:<42>" {
				t.Errorf("String = %q, want RES:<42>", got)
			}
			if b.PublishedPrefix("") != 1 {
				t.Errorf("published = %d", b.PublishedPrefix(""))
			}
		})
	}
}

// TestTopicNamespaceAccounting: per-prefix publish counters attribute a
// shared broker's traffic to the session namespace that produced it.
func TestTopicNamespaceAccounting(t *testing.T) {
	clock := cluster.NewClock(time.Nanosecond)
	b := NewQueueBrokerSharded(clock, 1e-9, 0)
	for i := 0; i < 3; i++ {
		if err := b.PublishAtoms("wf1.sa.T1", strAtoms("X")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.PublishAtoms("wf2.sa.T1", strAtoms("X")); err != nil {
		t.Fatal(err)
	}
	if got := b.PublishedPrefix("wf1."); got != 3 {
		t.Errorf("wf1 = %d, want 3", got)
	}
	if got := b.PublishedPrefix("wf2."); got != 1 {
		t.Errorf("wf2 = %d, want 1", got)
	}
	if got := b.PublishedPrefix(""); got != 4 {
		t.Errorf("all = %d, want 4", got)
	}
}

// TestPurgeTopicsDropsNamespaceState: purging a prefix removes
// subscriber registrations, counters and (log broker) retained logs for
// that namespace only.
func TestPurgeTopicsDropsNamespaceState(t *testing.T) {
	clock := cluster.NewClock(time.Nanosecond)
	b := NewLogBrokerSharded(clock, 1e-9, 0)
	sub1, err := b.Subscribe("wf1.sa.T1")
	if err != nil {
		t.Fatal(err)
	}
	defer sub1.Cancel()
	if _, err := b.Subscribe("wf2.sa.T1"); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishAtoms("wf1.sa.T1", strAtoms("A")); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishAtoms("wf2.sa.T1", strAtoms("B")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, sub1) // drain before purge

	if n := b.PurgeTopics("wf1."); n != 1 {
		t.Errorf("purged = %d, want 1", n)
	}
	if n := b.PurgeTopics("wf1."); n != 0 {
		t.Errorf("wf1 topics survive purge: a second purge found %d", n)
	}
	if got := logOf(b, "wf1.sa.T1"); len(got) != 0 {
		t.Errorf("wf1 log survives purge: %v", got)
	}
	if got := b.PublishedPrefix("wf1."); got != 0 {
		t.Errorf("wf1 counters survive purge: %d", got)
	}
	// The sibling namespace is untouched.
	if got := logOf(b, "wf2.sa.T1"); len(got) != 1 {
		t.Errorf("wf2 log = %v", got)
	}
	if got := b.PublishedPrefix("wf2."); got != 1 {
		t.Errorf("wf2 counters = %d, want 1", got)
	}
	// A purged consumer's Subscription remains safe to cancel.
	sub1.Cancel()
	// Post-purge publishes to the namespace still work (topics are
	// created on demand); nothing is delivered to the purged consumer.
	if err := b.PublishAtoms("wf1.sa.T1", strAtoms("C")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if batch := sub1.TryNext(); batch != nil {
		t.Errorf("purged consumer received %v", batch)
	}
	if n := b.PurgeTopics("wf2."); n != 1 {
		t.Errorf("wf2 purge = %d, want its one topic", n)
	}
}

func TestLogBrokerReplaysStructuralMessages(t *testing.T) {
	clock := cluster.NewClock(time.Nanosecond)
	b := NewLogBrokerSharded(clock, 1e-9, 0)
	payload := []hocl.Atom{hocl.Ident("GOODATOM")}
	if err := b.PublishAtoms("sa.T1", payload); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishAtoms("sa.T1", strAtoms("SECOND")); err != nil {
		t.Fatal(err)
	}
	log := logOf(b, "sa.T1")
	if len(log) != 2 {
		t.Fatalf("log length = %d", len(log))
	}
	if len(log[0].Atoms) != 1 || !log[0].Atoms[0].Equal(hocl.Ident("GOODATOM")) {
		t.Errorf("log[0] = %+v", log[0])
	}
	if log[0].Offset != 0 || log[1].Offset != 1 {
		t.Errorf("offsets = %d, %d", log[0].Offset, log[1].Offset)
	}
	if strOf(log[1]) != "SECOND" {
		t.Errorf("log[1] = %+v", log[1])
	}
	// Tampering with a returned log's atom slice must not corrupt the
	// broker's retained history.
	log[0].Atoms[0] = hocl.Ident("TAMPERED")
	if got := logOf(b, "sa.T1")[0].Atoms[0]; !got.Equal(hocl.Ident("GOODATOM")) {
		t.Errorf("log atom slice is not isolated: %v", got)
	}
}

// TestRecordCountsWithoutDelivering: a recorded message counts as a
// publish (the registry total and its topic's PublishedPrefix), is
// retained and observed on the log broker, and reaches no subscriber:
// the next message out of the subscription is the one published after
// it.
func TestRecordCountsWithoutDelivering(t *testing.T) {
	for name, b := range brokers(t) {
		reg := obs.NewRegistry()
		b.SetMetrics(reg)
		var observed []string
		if lb, ok := b.(*LogBroker); ok {
			lb.SetPublishObserver(func(m Message) { observed = append(observed, strOf(m)) })
		}
		sub, err := b.Subscribe("wf1.sa.T1")
		if err != nil {
			t.Fatal(err)
		}
		rec := b.(interface {
			Record(string, []hocl.Atom) error
		})
		if err := rec.Record("wf1.sa.T1", strAtoms("recorded")); err != nil {
			t.Fatal(err)
		}
		if err := b.PublishAtoms("wf1.sa.T1", strAtoms("published")); err != nil {
			t.Fatal(err)
		}
		if got := strOf(recvOne(t, sub)); got != "published" {
			t.Errorf("%s: first delivery = %q, want the published message", name, got)
		}
		if got := b.PublishedPrefix("wf1."); got != 2 {
			t.Errorf("%s: PublishedPrefix = %d, want 2", name, got)
		}
		if got := reg.Counter("ginflow_mq_published_total", "").Value(); got != 2 {
			t.Errorf("%s: ginflow_mq_published_total = %v, want 2", name, got)
		}
		if lb, ok := b.(*LogBroker); ok {
			log := logOf(lb, "wf1.sa.T1")
			if len(log) != 2 || strOf(log[0]) != "recorded" || log[0].Offset != 0 {
				t.Errorf("log: %v, want the record first at offset 0", log)
			}
			if len(observed) != 2 || observed[0] != "recorded" {
				t.Errorf("observer saw %v, want the record first", observed)
			}
		}
		b.Close()
		if err := rec.Record("wf1.sa.T1", strAtoms("late")); err != ErrClosed {
			t.Errorf("%s: Record after Close = %v, want ErrClosed", name, err)
		}
	}
}
