// Package space implements GinFlow's shared space: the multiset holding
// "the description of the current status of the workflow" (paper §II,
// §IV-A). Service agents push their local solutions back to the space
// after reductions; the space routes each update "to the right
// sub-solution" and lets clients observe progress and completion.
//
// Every status push is the task's full record (a Name:<...> tuple)
// behind a VER header; the space replaces the task's recorded
// sub-solution whenever the header advances the task's version and drops
// the push otherwise (DESIGN.md "Status pushes").
package space

import (
	"context"
	"sync"
	"sync/atomic"

	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
)

// DefaultTopic is the broker topic the space consumes.
const DefaultTopic = "ginflow.space"

// TopicFor returns the space topic of a namespaced session: ns is a
// per-run topic namespace such as "wf3." (empty selects DefaultTopic).
// Each session of a long-lived manager runs its own Space on its own
// topic, so concurrent runs' status molecules never cross.
func TopicFor(ns string) string {
	if ns == "" {
		return DefaultTopic
	}
	return ns + DefaultTopic
}

// Space is the shared multiset. It is safe for concurrent use.
type Space struct {
	mu      sync.Mutex
	tasks   map[string]*hocl.Solution // task name -> latest pushed record
	markers []hocl.Atom               // TRIGGER markers and other global molecules
	// folded wakes the WaitCompleted waiter after every fold. Attach
	// puts it on the subscription's clock, so a virtual-clock waiter
	// parks on the scheduler.
	folded cluster.Wake

	// versions records, per task, the highest (incarnation, push) VER
	// header folded in; a payload that does not advance it is stale —
	// a delayed or redelivered push — and is dropped whole, so chaos on
	// the status topic can never roll a task's recorded state back.
	versions map[string]taskVersion

	sub *mq.Subscription
	// consumed counts the messages the serve loop has taken off the
	// topic and folded in (or, under chaos, deferred).
	consumed atomic.Int64

	// chaos, when set, perturbs the serve-path fold order (defer and
	// duplicate per message) — the space-client boundary of the chaos
	// harness. deferred holds the held-back messages; deferMu is separate
	// from mu because flushing folds through ApplyBatch, which takes mu.
	chaos    atomic.Pointer[failure.Schedule]
	deferMu  sync.Mutex
	deferred []mq.Message
}

// taskVersion orders one task's status pushes: incarnations dominate,
// push counters break ties within an incarnation.
type taskVersion struct {
	inc, push int64
}

// before reports whether v precedes (or equals) w lexicographically.
func (v taskVersion) before(w taskVersion) bool {
	return v.inc < w.inc || (v.inc == w.inc && v.push <= w.push)
}

// New returns an empty space.
func New() *Space {
	return &Space{
		tasks:    map[string]*hocl.Solution{},
		folded:   cluster.NewWake(nil),
		versions: map[string]taskVersion{},
	}
}

// ResetVersions forgets the per-task version gate. Crash recovery calls
// it after replaying journaled status history: the resumed process's
// agents restart at incarnation 0, and their fresh pushes must not be
// mistaken for stale ones.
func (s *Space) ResetVersions() {
	s.mu.Lock()
	s.versions = map[string]taskVersion{}
	s.mu.Unlock()
}

// Status derives the recorded status of a task (StatusIdle when the task
// has never reported).
func (s *Space) Status(name string) hoclflow.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.tasks[name]
	if !ok {
		return hoclflow.StatusIdle
	}
	return hoclflow.StatusOf(sub)
}

// Results returns the task's recorded RES contents. The atoms are shared
// by reference (status payloads are frozen); the caller must not mutate
// them.
func (s *Space) Results(name string) []hocl.Atom {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.tasks[name]
	if !ok {
		return nil
	}
	res := hoclflow.Results(sub)
	if res == nil {
		return nil
	}
	return append([]hocl.Atom(nil), res...)
}

// Triggered returns the adaptation IDs whose TRIGGER markers have been
// recorded, in arrival order (duplicates collapsed).
func (s *Space) Triggered() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, a := range s.markers {
		tp, ok := a.(hocl.Tuple)
		if !ok || len(tp) != 2 || !tp[0].Equal(hoclflow.KeyTRIGGER) {
			continue
		}
		id, ok := tp[1].(hocl.Str)
		if !ok || seen[string(id)] {
			continue
		}
		seen[string(id)] = true
		out = append(out, string(id))
	}
	return out
}

// Snapshot renders the space as a global multiset: task tuples plus
// markers — the distributed analogue of the centralized global solution.
// The result is a copy-on-write snapshot: the caller may mutate (even
// reduce) it freely without affecting the space.
func (s *Space) Snapshot() *hocl.Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	global := hocl.NewSolution()
	for name, sub := range s.tasks {
		global.Add(hocl.Tuple{hocl.Ident(name), sub.SnapshotSolution()})
	}
	for _, m := range s.markers {
		global.Add(hocl.Snapshot(m))
	}
	return global
}

// StateFingerprint hashes the space's observable state — every task's
// recorded top-level multiset plus the markers — order-insensitively:
// two spaces that recorded the same states fingerprint equal regardless
// of the order, duplication or interleaving in which their pushes
// arrived, which is the convergence property the version gate is tested
// against.
func (s *Space) StateFingerprint() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m hocl.MultisetHash
	for name, sub := range s.tasks {
		fp := hocl.Fingerprint(sub.Atoms()...)
		m.Add(hocl.AtomHash(hocl.Tuple{hocl.Ident(name), hocl.Int(int64(fp))}))
	}
	for _, mk := range s.markers {
		m.Add(hocl.AtomHash(mk))
	}
	return m.Fingerprint()
}

// WaitCompleted blocks until every named task reports StatusCompleted,
// or the context ends. One goroutine waits at a time, as one goroutine
// consumes a Subscription: every fold wakes that waiter, which re-checks
// the tasks. On a virtual clock the waiter is a schedule participant and
// the space is attached first, which puts the wake-up on the
// subscription's clock.
func (s *Space) WaitCompleted(ctx context.Context, names []string) error {
	for {
		s.mu.Lock()
		done := s.allCompletedLocked(names)
		folded := s.folded
		s.mu.Unlock()
		if done {
			return nil
		}
		if err := folded.Park(ctx); err != nil {
			return err
		}
	}
}

func (s *Space) allCompletedLocked(names []string) bool {
	for _, n := range names {
		sub, ok := s.tasks[n]
		if !ok || hoclflow.StatusOf(sub) != hoclflow.StatusCompleted {
			return false
		}
	}
	return true
}

// Attach subscribes the space to its broker topic and moves its
// WaitCompleted wake-up onto the subscription's clock. Attaching before
// any agent starts guarantees no status update is published into the
// void. Attach is idempotent.
func (s *Space) Attach(broker mq.PubSub, topic string) error {
	if topic == "" {
		topic = DefaultTopic
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sub != nil {
		return nil
	}
	sub, err := broker.Subscribe(topic)
	if err != nil {
		return err
	}
	s.sub = sub
	// A waiter parked on the old wake-up re-checks and moves over.
	old := s.folded
	s.folded = cluster.NewWake(sub.Clock())
	old.Signal()
	return nil
}

// Serve consumes status messages from the broker topic until the context
// ends, attaching first if Attach has not been called. Messages arrive
// in broker batches and are folded in under one lock acquisition per
// batch. Message payloads are HOCL molecule lists: a VER header gates
// the rest of its payload, task tuples (Name:<...>) replace the task's
// sub-solution, anything else is recorded as a marker. A resilient space
// does not die on a corrupt message.
func (s *Space) Serve(ctx context.Context, broker mq.PubSub, topic string) error {
	return s.ServeHooked(ctx, broker, topic, nil, nil)
}

// ServeHooked consumes like Serve with two optional observation hooks
// running on the consuming goroutine, in exact fold order: before is
// invoked with each raw batch before it is folded in (the journal's
// write-ahead point), after once the fold completed (the checkpoint
// point). Hooks see batches in the order the space applies them — the
// ordering guarantee a write-ahead log needs and a second subscriber
// could not give.
//
// When a chaos schedule is installed (SetChaos), the fold order behind
// the hooks is perturbed: messages may be held back or folded twice.
// The hooks still see raw batches in arrival order, so a journal
// records truth while the chaos exercises the version gate beneath it.
func (s *Space) ServeHooked(ctx context.Context, broker mq.PubSub, topic string, before func([]mq.Message), after func()) error {
	if err := s.Attach(broker, topic); err != nil {
		return err
	}
	s.mu.Lock()
	sub := s.sub
	s.mu.Unlock()
	defer sub.Cancel()
	// Chaos-deferred messages are flushed whenever the inbox runs dry: a
	// held-back message rejoins as soon as the space would otherwise go
	// quiet, so a deferral can never stall convergence.
	for {
		if err := ctx.Err(); err != nil {
			s.FlushDeferred()
			return err
		}
		batch := sub.TryNext()
		if batch == nil {
			s.FlushDeferred()
			var err error
			batch, err = sub.Next(ctx)
			if err != nil {
				s.FlushDeferred()
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
		}
		if before != nil {
			before(batch)
		}
		s.applyBatchChaos(batch)
		if after != nil {
			after()
		}
		s.consumed.Add(int64(len(batch)))
	}
}

// Consumed returns how many messages the serve loop has taken off its
// topic and folded in, chaos-deferred ones included. Once it reaches the
// broker's publish count for the topic, every status published so far
// is in the space.
func (s *Space) Consumed() int64 { return s.consumed.Load() }

// SetChaos installs the fault schedule for the space-client boundary.
// Install before Serve; a nil schedule is ignored.
func (s *Space) SetChaos(sched *failure.Schedule) {
	if sched != nil {
		s.chaos.Store(sched)
	}
}

// applyBatchChaos folds one serve-path batch, drawing a fault per
// message when chaos is enabled: a "drop" defers the fold (a delayed
// apply — never a loss, since a lost final status would break the
// convergence guarantee the paper's model gives), a duplicate folds the
// message twice (the version gate must shrug it off). Held-back
// messages rejoin at the next fold, oldest first, so they arrive out of
// order relative to their successors. The perturbation lives only on
// the serve path: ApplyBatch itself stays pure for recovery replay.
func (s *Space) applyBatchChaos(batch []mq.Message) {
	sched := s.chaos.Load()
	if !sched.Active(failure.BoundarySpace) {
		s.ApplyBatch(batch)
		return
	}
	s.deferMu.Lock()
	pending := s.deferred
	s.deferred = nil
	s.deferMu.Unlock()
	apply := make([]mq.Message, 0, len(pending)+len(batch))
	apply = append(apply, pending...)
	var held []mq.Message
	for i := range batch {
		switch sched.Draw(failure.BoundarySpace).Kind {
		case failure.FaultDrop:
			held = append(held, batch[i])
		case failure.FaultDuplicate:
			apply = append(apply, batch[i], batch[i])
		default:
			apply = append(apply, batch[i])
		}
	}
	if len(apply) > 0 {
		s.ApplyBatch(apply)
	}
	if len(held) > 0 {
		s.deferMu.Lock()
		s.deferred = append(s.deferred, held...)
		s.deferMu.Unlock()
	}
}

// FlushDeferred folds every chaos-deferred message immediately. The
// engine calls it after the chaos settle window, before reading results
// — deferred state must land before anyone fingerprints the space.
func (s *Space) FlushDeferred() {
	s.deferMu.Lock()
	pending := s.deferred
	s.deferred = nil
	s.deferMu.Unlock()
	if len(pending) > 0 {
		s.ApplyBatch(pending)
	}
}

// TaskStates returns a copy-on-write snapshot of every task's recorded
// sub-solution, keyed by task name — the per-task view crash recovery
// seeds replacement agents from. The caller may mutate the returned
// solutions freely.
func (s *Space) TaskStates() map[string]*hocl.Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*hocl.Solution, len(s.tasks))
	for name, sub := range s.tasks {
		out[name] = sub.SnapshotSolution()
	}
	return out
}

// ApplyBatch folds a batch of status messages into the space under one
// lock acquisition and one waiter wakeup. The atoms are stored by
// reference (the zero-reparse path). The batch slice is not retained —
// safe to call with a broker-owned batch.
func (s *Space) ApplyBatch(msgs []mq.Message) {
	s.mu.Lock()
	applied := int64(0)
	for i := range msgs {
		s.applyAtomsLocked(msgs[i].Atoms, &applied)
	}
	// One wake-up per batch, and only when the fold changed anything:
	// the waiter re-checks state however many updates it folded in.
	if applied > 0 {
		s.folded.Signal()
	}
	s.mu.Unlock()
}

// ApplyMessage folds one status message into the space, reporting
// whether it carried any molecule; a message without atoms is a no-op.
func (s *Space) ApplyMessage(msg mq.Message) bool {
	s.ApplyBatch([]mq.Message{msg})
	return len(msg.Atoms) > 0
}

// applyAtomsLocked routes each molecule: task tuples (Name:<...>)
// replace the task's recorded sub-solution, anything else is recorded as
// a marker. The space never mutates wire atoms, so sharing them with the
// publisher and other consumers is safe. applied is incremented per
// folded-in update (stale pushes and repeated markers do not count).
func (s *Space) applyAtomsLocked(atoms []hocl.Atom, applied *int64) {
	for _, a := range atoms {
		if task, inc, push, ok := hoclflow.DecodeVersion(a); ok {
			// The VER header gates the remainder of its payload: a
			// version that does not advance the task's recorded one is a
			// delayed or redelivered push, dropped whole.
			v := taskVersion{inc: inc, push: push}
			if prev, seen := s.versions[task]; seen && v.before(prev) {
				return
			}
			s.versions[task] = v
			continue
		}
		if tp, ok := a.(hocl.Tuple); ok && len(tp) == 2 {
			if name, ok := tp[0].(hocl.Ident); ok {
				if sub, ok := tp[1].(*hocl.Solution); ok {
					s.tasks[string(name)] = sub
					*applied++
					continue
				}
			}
		}
		if s.hasMarkerLocked(a) {
			// Markers are idempotent facts (TRIGGER:"id", ...): a
			// duplicated delivery must not grow the marker multiset, or
			// fingerprints would diverge across chaotic runs.
			continue
		}
		s.markers = append(s.markers, a)
		*applied++
	}
}

// hasMarkerLocked reports whether an equal marker is already recorded.
func (s *Space) hasMarkerLocked(a hocl.Atom) bool {
	for _, m := range s.markers {
		if m.Equal(a) {
			return true
		}
	}
	return false
}
