// Package mq provides the messaging middleware service agents coordinate
// through (paper §IV-A: "the inter-agents communications rely on a
// message queue middleware which can be either Apache ActiveMQ or
// Kafka"). Two brokers are implemented:
//
//   - QueueBroker stands in for ActiveMQ: in-memory topics, low
//     per-message latency, no persistence — messages delivered to a dead
//     consumer are gone.
//   - LogBroker stands in for Kafka: an append-only log per topic that
//     survives consumer crashes and can be replayed from the beginning,
//     which is exactly the ability the paper's §IV-B recovery mechanism
//     exploits; its per-message latency is higher (the paper measures
//     roughly 4× slower executions, Fig. 14).
//
// Delivery latency is modelled on the cluster clock, so broker choice
// shapes experiment timings the same way it does in the paper.
//
// # Sharding
//
// The broker is partitioned into independent shards (DESIGN.md "Broker
// internals"). Every topic routes through exactly one shard, selected by
// hashing its session-namespace prefix (ShardKey): all topics of one
// Manager session — "wf3.sa.T1", "wf3.ginflow.space" — share a shard, so
// a session's messages queue only behind their own session's traffic,
// while concurrent sessions spread over the shard set instead of
// contending on one lock and one modelled middleware occupancy. Topics
// outside a session namespace hash individually over the same shard
// set, so standalone (un-namespaced) traffic spreads too instead of
// serializing on one default shard's occupancy.
//
// # Batch delivery
//
// Consumption is pull-only, on either clock: a publish appends to each
// subscriber's pending queue and signals it, and the consumer's own
// goroutine takes everything already due as one []Message with
// Subscription.Next (blocking) or TryNext (non-blocking), so a burst of
// publishes costs one hand-off instead of one per message. A
// subscription owns no goroutine and no channel of messages.
package mq

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/obs"
)

// Message is one published datum: HOCL molecules, pre-built and shared by
// reference from publisher to every subscriber (the zero-reparse path,
// DESIGN.md). Each atom's String method renders it for a log line.
//
// The atoms are frozen: the publisher hands over atoms it will no longer
// mutate, and consumers must not mutate them either (the same atoms may
// be shared by other subscribers and by the broker's replay log).
// hocl.Shareable tells a consumer whether an atom can be ingested into a
// reducing solution by reference or must be cloned first. The Message
// values themselves are the consumer's: Next and TryNext return a fresh
// slice per call, which the consumer may keep or modify.
type Message struct {
	Topic string
	Atoms []hocl.Atom
	// Offset is the message's position in its topic's log (LogBroker
	// only; -1 for QueueBroker deliveries).
	Offset int
}

// PubSub is the pub/sub surface agents, the space and the transport
// server use: publish and subscribe, nothing else.
type PubSub interface {
	// PublishAtoms sends atoms to every current subscriber of topic
	// after the broker's modelled latency. The molecules are delivered
	// (and, on a log broker, retained) by reference, never rendered or
	// re-parsed. The caller must not mutate the atoms after publishing.
	PublishAtoms(topic string, atoms []hocl.Atom) error
	// Subscribe registers a consumer. Messages published after the
	// subscription come out of its Next/TryNext calls in due-order
	// batches, in per-topic publication order.
	Subscribe(topic string) (*Subscription, error)
}

// Broker is the surface the Manager holds: the in-process brokers,
// which it meters, perturbs with chaos and purges per session.
type Broker interface {
	PubSub
	// PublishedPrefix returns the number of messages accepted for topics
	// sharing the given prefix — the per-session message count of a
	// long-lived broker multiplexing namespaced workflow runs.
	PublishedPrefix(prefix string) int64
	// Topics returns the topics under the given prefix that still hold
	// broker state (subscriber lists, retained logs, counters) on any
	// shard, sorted. An empty prefix lists everything.
	Topics(prefix string) []string
	// PurgeTopics drops all broker state for topics sharing the given
	// prefix — subscriber registrations, retained logs and counters, on
	// every shard — and reports how many topics were purged. Sessions
	// call it on completion so a long-lived broker does not accumulate
	// state for every workflow ever run. Purging does not cancel
	// subscriptions; consumers still own their Subscription lifecycles.
	PurgeTopics(prefix string) int
	// SetChaos installs (or, with nil, removes) the fault schedule
	// perturbing deliveries. Install it before traffic flows.
	SetChaos(*failure.Schedule)
	// SetMetrics registers the broker's observability series on reg
	// (nil takes the process default). Call before traffic flows.
	SetMetrics(reg *obs.Registry)
	// Close shuts the broker down; subsequent publishes fail.
	Close() error
}

// Replayable is the additional capability of log-backed brokers: the
// persisted history of a topic, used to rebuild a crashed agent's state
// ("we exploit the ability of Kafka to persist the messages ... and to
// replay them on demand", §IV-B).
type Replayable interface {
	PubSub
	// Log returns a copy of every message ever published to topic, in
	// publication order. An error means the history could not be read,
	// which is not the same as an empty log.
	Log(topic string) ([]Message, error)
}

// DefaultShards is the default number of broker shards. A session's
// topics stay on one shard (see ShardKey) while different sessions hash
// apart; topics outside any session namespace are routed by their full
// name, so standalone traffic also spreads over the shard set.
const DefaultShards = 8

// ShardKey extracts the routing key of a topic: its session-namespace
// prefix ("wf<id>.", as minted by the Manager) when present, else the
// empty key. Keying on the namespace keeps all of one session's topics
// on one shard — a session's delivery order and middleware occupancy
// are self-contained — while different sessions hash apart. Topics with
// the empty key are routed by their full name (shardIndex), so
// standalone traffic spreads over the shards instead of serializing.
func ShardKey(topic string) string {
	if len(topic) > 3 && topic[0] == 'w' && topic[1] == 'f' {
		i := 2
		for i < len(topic) && topic[i] >= '0' && topic[i] <= '9' {
			i++
		}
		if i > 2 && i < len(topic) && topic[i] == '.' {
			return topic[:i+1]
		}
	}
	return ""
}

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = fmt.Errorf("mq: broker closed")

// ErrCancelled is returned by Next on a cancelled subscription.
var ErrCancelled = fmt.Errorf("mq: subscription cancelled")

// timedMsg pairs a message with its earliest delivery instant in model
// seconds on the broker's clock. The consumer waits for it through
// Clock.SleepCtx: a scaled real-time wait on a real clock, a
// discrete-event timer on a virtual one.
type timedMsg struct {
	msg Message
	due float64
}

// shard is one independent partition of the broker: its own subscriber
// table, its own per-topic counters and its own modelled middleware
// occupancy. Messages on different shards never queue behind each other.
type shard struct {
	mu   sync.RWMutex
	subs map[string][]*subscriber

	// Per-shard observability series (nil until SetMetrics), handed to
	// subscribers at registration so the hot enqueue/hand-off paths touch
	// resolved instrument pointers only. Written under mu; read under mu
	// (Subscribe) — existing subscribers keep whatever they got, which is
	// why SetMetrics must run before traffic flows.
	metDeliveries *obs.Counter
	metBatches    *obs.Counter
	metPending    *obs.Gauge

	// qmu serialises the occupancy bookkeeping of this shard: a shard
	// models one middleware instance (partition), so its messages queue
	// behind each other. nextFree is the model-time instant the shard
	// finishes its current backlog. The per-topic publish counters
	// piggyback on the same critical section.
	qmu      sync.Mutex
	nextFree float64
	perTopic map[string]int64
}

// common implements the shared sharded pub/sub core. Each message is
// delivered after the broker's modelled latency, measured from its
// publication: deliveries are pipelined (a burst of publishes arrives one
// latency later, not serialized behind each other) while per-publisher
// FIFO order per topic is preserved, like an ActiveMQ queue or a Kafka
// partition. Order preservation matters: agents replace their status in
// the shared space, so a stale update must never overtake a fresh one.
type common struct {
	clock   *cluster.Clock
	latency float64 // model seconds per message (propagation)
	// svcTime is the modelled broker occupancy per message (float64
	// bits): the throughput bottleneck that makes message-heavy
	// workloads pay per message. Atomic so SetServiceTime does not
	// contend with delivery.
	svcTime atomic.Uint64

	shards []*shard

	// chaos, when set, perturbs delivery fan-out per (message,
	// subscriber): drop with bounded redelivery, duplicate, delay,
	// reorder. Atomic so installation needs no delivery-path lock.
	chaos atomic.Pointer[failure.Schedule]

	mu     sync.RWMutex
	closed bool

	nextID atomic.Int64

	// metPublished / metBatchSize mirror the broker counters into an obs
	// registry once SetMetrics runs. Atomic pointers: installation needs
	// no publish-path lock, and obs instruments are nil-receiver-safe so
	// the unmetered path pays one pointer load.
	metPublished atomic.Pointer[obs.Counter]
	metBatchSize atomic.Pointer[obs.Histogram]
}

func newCommon(clock *cluster.Clock, latency, svcTime float64, nshards int) *common {
	if nshards <= 0 {
		nshards = DefaultShards
	}
	c := &common{clock: clock, latency: latency, shards: make([]*shard, nshards)}
	c.svcTime.Store(math.Float64bits(svcTime))
	for i := range c.shards {
		c.shards[i] = &shard{subs: map[string][]*subscriber{}, perTopic: map[string]int64{}}
	}
	return c
}

// shardFor routes a topic to its shard by FNV-1a over its ShardKey.
func (c *common) shardFor(topic string) *shard {
	return c.shards[c.shardIndex(topic)]
}

func (c *common) shardIndex(topic string) int {
	key := ShardKey(topic)
	if key == "" {
		// No session namespace: hash the full topic so standalone topics
		// spread over the shard set instead of all serializing behind one
		// default shard's modelled occupancy.
		key = topic
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return int(h % uint64(len(c.shards)))
}

// SetMetrics registers the broker's observability series on reg (nil
// takes the process default registry): total publishes, per-shard
// delivery and batch counters, per-shard pending-depth gauges and a
// batch-size histogram. Call before any traffic flows — subscribers
// capture their shard's instruments at Subscribe time.
func (c *common) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	c.metPublished.Store(reg.Counter("ginflow_mq_published_total",
		"Messages accepted by the broker (all topics, all shards)."))
	c.metBatchSize.Store(reg.Histogram("ginflow_mq_batch_size",
		"Messages per delivery batch handed to a subscriber.", obs.BatchSizeBuckets))
	for i, sh := range c.shards {
		lbl := obs.L("shard", strconv.Itoa(i))
		d := reg.Counter("ginflow_mq_deliveries_total",
			"Messages enqueued to subscribers, per shard (duplicates from chaos included).", lbl)
		b := reg.Counter("ginflow_mq_delivery_batches_total",
			"Delivery batches handed to subscribers, per shard.", lbl)
		p := reg.Gauge("ginflow_mq_pending_messages",
			"Messages enqueued but not yet handed to their subscriber, per shard.", lbl)
		sh.mu.Lock()
		sh.metDeliveries, sh.metBatches, sh.metPending = d, b, p
		sh.mu.Unlock()
	}
}

// subscriber is one consumer's delivery state: an unbounded pending
// queue filled by publishers and emptied by the consumer's own
// Next/TryNext calls. It owns no goroutine.
type subscriber struct {
	id int64

	// clock translates model due instants into waits. nil for push-fed
	// subscriptions, whose messages are always already due.
	clock *cluster.Clock

	mu    sync.Mutex
	queue []timedMsg

	// notify parks an empty-queue consumer until the queue grows or
	// done closes.
	notify cluster.Wake
	done   chan struct{} // closed by Cancel

	// Observability instruments captured from the shard at Subscribe.
	// All nil for push-fed subscriptions and unmetered brokers — obs
	// instruments are nil-receiver-safe, so the hot paths never branch.
	metDeliveries *obs.Counter
	metBatches    *obs.Counter
	metPending    *obs.Gauge
	metBatchSize  *obs.Histogram
}

func newSubscriber(id int64, clock *cluster.Clock) *subscriber {
	return &subscriber{id: id, clock: clock, notify: cluster.NewWake(clock), done: make(chan struct{})}
}

// now is the current instant on the subscriber's clock; push-fed
// subscriptions have none and stamp every message due at 0.
func (s *subscriber) now() float64 {
	if s.clock == nil {
		return 0
	}
	return s.clock.Now()
}

// enqueue appends a delivery without blocking the publisher.
func (s *subscriber) enqueue(tm timedMsg) {
	s.metDeliveries.Inc()
	s.metPending.Add(1)
	s.mu.Lock()
	s.queue = append(s.queue, tm)
	s.mu.Unlock()
	s.notify.Signal()
}

// swapTail swaps the two newest pending deliveries — the chaos
// schedule's within-batch reorder. Only the messages swap; the due
// instants stay in place, so the due sequence the consumer's due-prefix
// cut relies on remains monotone while the delivery order genuinely
// changes.
func (s *subscriber) swapTail() {
	s.mu.Lock()
	if n := len(s.queue); n >= 2 {
		s.queue[n-1].msg, s.queue[n-2].msg = s.queue[n-2].msg, s.queue[n-1].msg
	}
	s.mu.Unlock()
}

// Subscription is one consumer's feed: a queue the consumer pulls from
// with Next (blocking) or TryNext (non-blocking) until it calls Cancel.
// One goroutine consumes a subscription at a time; Cancel may come from
// any goroutine.
type Subscription struct {
	sub    *subscriber
	cancel func() // detaches the feed (shard registration, remote side); may be nil
	once   sync.Once
}

// Next blocks until at least one message is due and returns every due
// pending message as one batch, in delivery order. The wait for the
// head message's due instant runs on the broker's clock; on a virtual
// clock the caller must be a schedule participant, so model time
// advances exactly to that instant. Next returns ctx.Err() when ctx ends
// first and ErrCancelled once the subscription is cancelled. The
// returned slice is owned by the caller.
func (s *Subscription) Next(ctx context.Context) ([]Message, error) {
	sub := s.sub
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		select {
		case <-sub.done:
			return nil, ErrCancelled
		default:
		}
		now := sub.now()
		sub.mu.Lock()
		if len(sub.queue) == 0 {
			sub.mu.Unlock()
			if err := sub.notify.Park(ctx); err != nil {
				return nil, err
			}
			continue
		}
		if head := sub.queue[0].due; head > now {
			sub.mu.Unlock()
			if err := sub.clock.SleepCtx(ctx, head-now); err != nil {
				return nil, err
			}
			continue
		}
		batch := sub.takeDueLocked(now)
		sub.mu.Unlock()
		return batch, nil
	}
}

// Clock returns the clock the subscription's due instants run on: the
// broker's, or nil for a push-fed subscription. A consumer that also
// waits on state of its own builds its cluster.Wake on it.
func (s *Subscription) Clock() *cluster.Clock { return s.sub.clock }

// TryNext returns every pending message already due as one batch, or
// nil when nothing is due yet. It never blocks and never advances model
// time. The returned slice is owned by the caller.
func (s *Subscription) TryNext() []Message {
	sub := s.sub
	now := sub.now()
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.queue) == 0 || sub.queue[0].due > now {
		return nil
	}
	return sub.takeDueLocked(now)
}

// takeDueLocked removes and returns the due prefix of the pending
// queue. Caller holds sub.mu and has checked the head is due.
func (sub *subscriber) takeDueLocked(now float64) []Message {
	cut := 1
	for cut < len(sub.queue) && sub.queue[cut].due <= now {
		cut++
	}
	batch := make([]Message, cut)
	for i := 0; i < cut; i++ {
		batch[i] = sub.queue[i].msg
	}
	n := copy(sub.queue, sub.queue[cut:])
	for i := n; i < len(sub.queue); i++ {
		sub.queue[i] = timedMsg{}
	}
	sub.queue = sub.queue[:n]
	sub.metBatches.Inc()
	sub.metBatchSize.Observe(float64(cut))
	sub.metPending.Add(-float64(cut))
	return batch
}

// Cancel detaches the consumer; pending deliveries are dropped, which is
// how a crashed agent loses its in-flight messages on a queue broker. A
// consumer parked in Next wakes and returns ErrCancelled.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		close(s.sub.done)
		s.sub.notify.Signal()
		if s.cancel != nil {
			s.cancel()
		}
	})
}

func (c *common) Subscribe(topic string) (*Subscription, error) {
	sub := newSubscriber(c.nextID.Add(1), c.clock)
	sh := c.shardFor(topic)
	// The closed-check must stay atomic with registration (a concurrent
	// Close between them would hand out a subscription on a closed
	// broker), so the broker read-lock is held across both; Close's
	// write-lock then serialises against in-flight subscribes.
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, ErrClosed
	}
	sh.mu.Lock()
	sh.subs[topic] = append(sh.subs[topic], sub)
	sub.metDeliveries, sub.metBatches, sub.metPending = sh.metDeliveries, sh.metBatches, sh.metPending
	sub.metBatchSize = c.metBatchSize.Load()
	sh.mu.Unlock()
	c.mu.RUnlock()
	return &Subscription{
		sub:    sub,
		cancel: func() { c.removeSub(sh, topic, sub.id) },
	}, nil
}

// pushSubIDs numbers push-fed subscriptions; they never register on a
// broker shard, so the counter only needs to be unique among themselves.
var pushSubIDs atomic.Int64

// NewPushSubscription builds a Subscription fed by the returned push
// function instead of a local broker shard — the consumer half of a
// remote transport. Each pushed message is due immediately (its modelled
// latency already elapsed on the serving broker before the bytes hit
// the wire) and comes out of Next/TryNext exactly as on a broker-fed
// subscription. onCancel, when non-nil, runs once when the subscription
// is cancelled (e.g. to tell the remote side to stop forwarding).
// Pushing after cancellation is safe and delivers nothing.
func NewPushSubscription(onCancel func()) (*Subscription, func(msgs []Message)) {
	sub := newSubscriber(pushSubIDs.Add(1), nil)
	push := func(msgs []Message) {
		sub.mu.Lock()
		for i := range msgs {
			sub.queue = append(sub.queue, timedMsg{msg: msgs[i]})
		}
		sub.mu.Unlock()
		sub.notify.Signal()
	}
	return &Subscription{sub: sub, cancel: onCancel}, push
}

func (c *common) removeSub(sh *shard, topic string, id int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	list := sh.subs[topic]
	for i, s := range list {
		if s.id == id {
			sh.subs[topic] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// deliver fans msg out to the topic's current subscribers on its shard.
// The message first queues for the shard (occupying it for svcTime — the
// per-partition throughput bottleneck), then propagates for latency. The
// resulting due instant is monotonically non-decreasing across publishes
// on one shard, so per-subscriber FIFO order is preserved. Enqueueing
// never blocks: the pending queue is unbounded and the consumer takes
// it at its own pace.
func (c *common) deliver(msg Message) {
	c.metPublished.Load().Inc()
	sh := c.shardFor(msg.Topic)
	svc := math.Float64frombits(c.svcTime.Load())
	now := c.clock.Now()
	sh.qmu.Lock()
	start := now
	if sh.nextFree > now {
		start = sh.nextFree
	}
	sh.nextFree = start + svc
	due := sh.nextFree + c.latency
	sh.perTopic[msg.Topic]++
	sh.qmu.Unlock()

	tm := timedMsg{msg: msg, due: due}
	ch := c.chaos.Load()
	chaos := ch.Active(failure.BoundaryMessage)
	sh.mu.RLock()
	for _, sub := range sh.subs[msg.Topic] {
		if !chaos {
			sub.enqueue(tm)
			continue
		}
		c.chaosEnqueue(ch, sub, tm, 0)
	}
	sh.mu.RUnlock()
}

// Record accounts for a message its publisher delivered without the
// broker (a worker's in-process delivery between co-located agents): it
// is counted as a publish, in ginflow_mq_published_total and in its
// topic's PublishedPrefix count, but takes no shard occupancy, draws no
// chaos and is delivered to no one. The queue broker needs no atoms.
func (c *common) Record(topic string, _ []hocl.Atom) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	c.metPublished.Load().Inc()
	sh := c.shardFor(topic)
	sh.qmu.Lock()
	sh.perTopic[topic]++
	sh.qmu.Unlock()
	return nil
}

// SetServiceTime overrides the per-message broker occupancy (model
// seconds). Call before any traffic flows; 0 disables queueing.
func (c *common) SetServiceTime(s float64) {
	c.svcTime.Store(math.Float64bits(s))
}

// PublishedPrefix sums the per-topic publish counters over topics with
// the given prefix, across all shards. An empty prefix matches everything
// still counted (purged topics no longer contribute).
func (c *common) PublishedPrefix(prefix string) int64 {
	var n int64
	for _, sh := range c.shards {
		sh.qmu.Lock()
		for topic, count := range sh.perTopic {
			if strings.HasPrefix(topic, prefix) {
				n += count
			}
		}
		sh.qmu.Unlock()
	}
	return n
}

// shardTopics collects the topics under prefix holding subscriber or
// counter state on one shard.
func (c *common) shardTopics(sh *shard, prefix string, seen map[string]bool) {
	sh.mu.RLock()
	for topic, list := range sh.subs {
		if len(list) > 0 && strings.HasPrefix(topic, prefix) {
			seen[topic] = true
		}
	}
	sh.mu.RUnlock()
	sh.qmu.Lock()
	for topic := range sh.perTopic {
		if strings.HasPrefix(topic, prefix) {
			seen[topic] = true
		}
	}
	sh.qmu.Unlock()
}

// Topics lists topics under prefix that hold subscriber or counter state
// on any shard.
func (c *common) Topics(prefix string) []string {
	seen := map[string]bool{}
	for _, sh := range c.shards {
		c.shardTopics(sh, prefix, seen)
	}
	return sortedKeys(seen)
}

func sortedKeys(seen map[string]bool) []string {
	out := make([]string, 0, len(seen))
	for topic := range seen {
		out = append(out, topic)
	}
	sort.Strings(out)
	return out
}

// PurgeTopics drops subscriber registrations and counters for topics
// with the given prefix on every shard. Subscriptions are not cancelled —
// that is the owning consumer's job — so a purged consumer simply stops
// receiving.
func (c *common) PurgeTopics(prefix string) int {
	return len(c.purge(prefix))
}

// purge removes the common state under prefix across shards and returns
// the set of topics that held any, so broker variants can union in their
// own state (the log broker adds its retained logs) without re-scanning.
func (c *common) purge(prefix string) map[string]bool {
	purged := map[string]bool{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for topic, list := range sh.subs {
			if strings.HasPrefix(topic, prefix) {
				if len(list) > 0 {
					purged[topic] = true
				}
				delete(sh.subs, topic)
			}
		}
		sh.mu.Unlock()
		sh.qmu.Lock()
		for topic := range sh.perTopic {
			if strings.HasPrefix(topic, prefix) {
				purged[topic] = true
				delete(sh.perTopic, topic)
			}
		}
		sh.qmu.Unlock()
	}
	return purged
}

// Close shuts the broker down; subsequent publishes and subscriptions
// fail with ErrClosed.
func (c *common) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *common) checkOpen() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	return nil
}

// QueueBroker is the ActiveMQ-like broker: fast, volatile.
type QueueBroker struct {
	*common
}

// DefaultQueueLatency is the modelled per-message latency of the queue
// broker, in model seconds. Model constants are calibrated so that, at
// the default clock scale (1 ms of real time per model second), every
// modelled sleep sits above the host's ~1.2 ms timer granularity; the
// absolute values are arbitrary, the ratios are what the experiments
// reproduce.
const DefaultQueueLatency = 2.0

// DefaultQueueServiceTime is the broker occupancy per message for the
// queue broker: the throughput term behind Fig. 12(b)'s fully-connected
// slowdown (hundreds of messages per layer share one middleware
// partition).
const DefaultQueueServiceTime = 0.01

// NewQueueBrokerSharded builds a queue broker on the given clock with an
// explicit shard count (<= 0 takes DefaultShards; 1 reproduces the
// unsharded broker). latency <= 0 takes DefaultQueueLatency.
func NewQueueBrokerSharded(clock *cluster.Clock, latency float64, shards int) *QueueBroker {
	if latency <= 0 {
		latency = DefaultQueueLatency
	}
	return &QueueBroker{common: newCommon(clock, latency, DefaultQueueServiceTime, shards)}
}

// PublishAtoms delivers to current subscribers only; nothing is retained.
func (b *QueueBroker) PublishAtoms(topic string, atoms []hocl.Atom) error {
	if err := b.checkOpen(); err != nil {
		return err
	}
	b.deliver(Message{Topic: topic, Atoms: atoms, Offset: -1})
	return nil
}

// logShard is one shard's slice of the retained logs, so log appends
// contend only within a shard, like Kafka partitions.
type logShard struct {
	mu   sync.RWMutex
	logs map[string][]Message
}

// LogBroker is the Kafka-like broker: append-only persisted topics with
// replay, at a higher per-message cost. Logs are sharded alongside the
// delivery state: a topic's log lives on the same shard its deliveries
// route through.
type LogBroker struct {
	*common
	logShards []*logShard

	// observer, when set, sees every accepted publish and record — the
	// journal's inbox write-through point (DESIGN.md "Fault model & chaos
	// harness").
	observer atomic.Pointer[func(Message)]
}

// DefaultLogLatency is the modelled per-message latency of the log
// broker: 4× the queue broker, matching the paper's Fig. 14 observation.
const DefaultLogLatency = 4 * DefaultQueueLatency // 8.0

// DefaultLogServiceTime is the broker occupancy per message of the log
// broker: persistence costs throughput as well; the 4x per-message ratio
// carries over (Fig. 14).
const DefaultLogServiceTime = 4 * DefaultQueueServiceTime // 0.04

// NewLogBrokerSharded builds a log broker on the given clock with an
// explicit shard count (<= 0 takes DefaultShards; 1 reproduces the
// unsharded broker). latency <= 0 takes DefaultLogLatency.
func NewLogBrokerSharded(clock *cluster.Clock, latency float64, shards int) *LogBroker {
	if latency <= 0 {
		latency = DefaultLogLatency
	}
	c := newCommon(clock, latency, DefaultLogServiceTime, shards)
	ls := make([]*logShard, len(c.shards))
	for i := range ls {
		ls[i] = &logShard{logs: map[string][]Message{}}
	}
	return &LogBroker{common: c, logShards: ls}
}

// PublishAtoms appends to the topic log, then delivers to subscribers.
// The log retains the atoms by reference: replay hands the same frozen
// molecules back, so recovery pays no re-parse either.
func (b *LogBroker) PublishAtoms(topic string, atoms []hocl.Atom) error {
	if err := b.checkOpen(); err != nil {
		return err
	}
	b.deliver(b.retain(topic, atoms))
	return nil
}

// Record retains and observes a message exactly as PublishAtoms does,
// and counts it, but delivers it to no one (see common.Record): its
// publisher has delivered it already. The log still replays it to a
// respawned consumer, and the observer journals it.
func (b *LogBroker) Record(topic string, atoms []hocl.Atom) error {
	if err := b.common.Record(topic, atoms); err != nil {
		return err
	}
	b.retain(topic, atoms)
	return nil
}

// retain appends a message to its topic's log and hands it to the
// observer.
func (b *LogBroker) retain(topic string, atoms []hocl.Atom) Message {
	msg := Message{Topic: topic, Atoms: atoms}
	ls := b.logShards[b.shardIndex(msg.Topic)]
	ls.mu.Lock()
	msg.Offset = len(ls.logs[msg.Topic])
	ls.logs[msg.Topic] = append(ls.logs[msg.Topic], msg)
	ls.mu.Unlock()
	// The observer runs outside the log-shard lock (it may take locks of
	// its own, e.g. the journal writer's) and before delivery, so a
	// journaled message is durable before any consumer can act on it.
	if obs := b.observer.Load(); obs != nil {
		(*obs)(msg)
	}
	return msg
}

// SetPublishObserver registers fn, invoked synchronously for every
// accepted publish or record, after the message is appended to the log
// and before it is delivered. One observer at a time; install it before
// traffic flows. The Manager uses it to journal agent inboxes
// write-through.
func (b *LogBroker) SetPublishObserver(fn func(Message)) {
	if fn == nil {
		b.observer.Store(nil)
		return
	}
	b.observer.Store(&fn)
}

// RestoreLog replaces a topic's retained log with msgs, renumbering
// offsets. Crash recovery uses it to re-seed a fresh process's broker
// with the journaled inbox history, so an agent that crashes again
// after resume still replays its pre-crash messages. Nothing is
// delivered; only the replay history changes.
func (b *LogBroker) RestoreLog(topic string, msgs []Message) {
	log := make([]Message, len(msgs))
	for i, m := range msgs {
		m.Topic = topic
		m.Offset = i
		log[i] = m
	}
	ls := b.logShards[b.shardIndex(topic)]
	ls.mu.Lock()
	ls.logs[topic] = log
	ls.mu.Unlock()
}

// Topics lists topics under prefix holding subscriber, counter or log
// state on any shard.
func (b *LogBroker) Topics(prefix string) []string {
	seen := map[string]bool{}
	for i, sh := range b.shards {
		b.shardTopics(sh, prefix, seen)
		b.logTopics(i, prefix, seen)
	}
	return sortedKeys(seen)
}

func (b *LogBroker) logTopics(shard int, prefix string, seen map[string]bool) {
	ls := b.logShards[shard]
	ls.mu.RLock()
	for topic := range ls.logs {
		if strings.HasPrefix(topic, prefix) {
			seen[topic] = true
		}
	}
	ls.mu.RUnlock()
}

// PurgeTopics additionally drops the retained logs under prefix — the
// piece of per-workflow state that would otherwise grow without bound in
// a long-lived log broker (replay is only meaningful within a session).
func (b *LogBroker) PurgeTopics(prefix string) int {
	purged := b.common.purge(prefix)
	for _, ls := range b.logShards {
		ls.mu.Lock()
		for topic := range ls.logs {
			if strings.HasPrefix(topic, prefix) {
				purged[topic] = true
				delete(ls.logs, topic)
			}
		}
		ls.mu.Unlock()
	}
	return len(purged)
}

// Log returns a copy of the topic's full history; it never fails. Atom
// slices are copied per message so a caller cannot swap molecules inside
// the log; the atoms themselves are shared (they are frozen by the
// publish contract).
func (b *LogBroker) Log(topic string) ([]Message, error) {
	ls := b.logShards[b.shardIndex(topic)]
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	out := append([]Message(nil), ls.logs[topic]...)
	for i := range out {
		out[i].Atoms = append([]hocl.Atom(nil), out[i].Atoms...)
	}
	return out, nil
}

var (
	_ Broker     = (*QueueBroker)(nil)
	_ Broker     = (*LogBroker)(nil)
	_ Replayable = (*LogBroker)(nil)
)

// Kind names a broker implementation in configs and CLIs.
type Kind string

// The broker kinds of the paper's deployment (§IV-A).
const (
	KindQueue Kind = "activemq"
	KindLog   Kind = "kafka"
)

// NewBroker builds a broker of the given kind with its default latency
// and DefaultShards shards.
func NewBroker(kind Kind, clock *cluster.Clock) (Broker, error) {
	return NewBrokerSharded(kind, clock, DefaultShards)
}

// NewBrokerSharded builds a broker of the given kind with its default
// latency and an explicit shard count (<= 0 takes DefaultShards).
func NewBrokerSharded(kind Kind, clock *cluster.Clock, shards int) (Broker, error) {
	switch kind {
	case KindQueue:
		return NewQueueBrokerSharded(clock, 0, shards), nil
	case KindLog:
		return NewLogBrokerSharded(clock, 0, shards), nil
	default:
		return nil, fmt.Errorf("mq: unknown broker kind %q (want %q or %q)", kind, KindQueue, KindLog)
	}
}
