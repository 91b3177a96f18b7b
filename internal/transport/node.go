package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/mq"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// NodeConfig tunes a worker node.
type NodeConfig struct {
	// Name is a human-readable label for the handshake.
	Name string
	// Services resolves the service names the assigned workflows
	// invoke. Implementations cannot travel over the wire, so every
	// worker must register the services its tasks need.
	Services *agent.Registry
	// PingInterval is the keepalive cadence (default 1s; negative
	// disables).
	PingInterval time.Duration
}

// Node is a worker process's runtime: it joins a transport server,
// receives session assignments, rebuilds the assigned agents from the
// workflow definition (resolving services from its local registry) and
// supervises them — crash restarts with inbox replay included — until
// the server says stop. One Node can serve many sessions over its
// lifetime.
type Node struct {
	rb       *RemoteBroker
	services *agent.Registry
	// plans keeps the compiled plan of the last assigned workflow,
	// keyed by its JSON bytes: a repeated assignment skips decoding and
	// translating it.
	plans workflow.PlanCache

	mu       sync.Mutex
	sessions map[uint64]*nodeSession

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Join connects a worker to a transport server and starts serving
// assignments. The returned Node's identity (NodeID) is assigned by the
// server during the handshake.
func Join(addr string, cfg NodeConfig) (*Node, error) {
	if cfg.Services == nil {
		return nil, fmt.Errorf("transport: join: nil service registry")
	}
	ping := cfg.PingInterval
	if ping == 0 {
		ping = time.Second
	} else if ping < 0 {
		ping = 0
	}
	rb, err := Dial(addr, DialConfig{Name: cfg.Name, PingInterval: ping})
	if err != nil {
		return nil, err
	}
	n := &Node{
		rb:       rb,
		services: cfg.Services,
		sessions: map[uint64]*nodeSession{},
		done:     make(chan struct{}),
	}
	n.wg.Add(1)
	go n.loop()
	return n, nil
}

// NodeID returns the server-assigned node identity.
func (n *Node) NodeID() uint64 { return n.rb.NodeID() }

// Close stops every hosted session and disconnects.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { close(n.done) })
	n.mu.Lock()
	sessions := make([]*nodeSession, 0, len(n.sessions))
	for _, ns := range n.sessions {
		sessions = append(sessions, ns)
	}
	n.mu.Unlock()
	for _, ns := range sessions {
		ns.Stop()
	}
	err := n.rb.Close()
	n.wg.Wait()
	return err
}

// loop serves the server's control conversation.
func (n *Node) loop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case <-n.rb.ctrlSig:
			for _, cf := range n.rb.takeControl() {
				n.handleControl(cf)
			}
		}
	}
}

// handleControl applies one session-control frame from the server.
func (n *Node) handleControl(cf controlFrame) {
	switch cf.typ {
	case fAssign:
		n.handleAssign(cf.session, cf.blob)
	case fStart:
		if ns := n.session(cf.session); ns != nil {
			ns.Start(context.Background(), ns.fail) // the rest run on until STOP
		}
	case fStop:
		// A session this worker does not hold (its assignment failed
		// here, or it is already stopped) has nothing to wind down.
		ns := n.session(cf.session)
		if ns == nil {
			n.rb.sendSession(fDone, cf.session)
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ns.stopAndReport()
		}()
	}
}

func (n *Node) session(id uint64) *nodeSession {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sessions[id]
}

func (n *Node) removeSession(id uint64) {
	n.mu.Lock()
	delete(n.sessions, id)
	n.mu.Unlock()
}

// handleAssign builds a session from its assignment and reports READY,
// or FAIL if the assignment cannot be realised here (unknown service,
// bad workflow JSON).
func (n *Node) handleAssign(session uint64, blob []byte) {
	ns, err := n.buildSession(session, blob)
	if err != nil {
		b, _ := json.Marshal(nodeFailure{Err: err.Error()})
		n.rb.sendSessionBlob(fFail, session, b)
		return
	}
	n.mu.Lock()
	n.sessions[session] = ns
	n.mu.Unlock()
	// READY travels the same ordered stream as the SUBSCRIBE frames
	// before it, so by the time the server routes it every inbox
	// subscription is live on the broker: the no-publish-into-the-void
	// barrier holds across the wire.
	n.rb.sendSession(fReady, session)
}

// nodeSession is one assigned session's worker-side state: the
// supervisor that hosts its agents, and its once-only FAIL report.
type nodeSession struct {
	*agent.Supervisor
	node *Node
	id   uint64

	failOnce sync.Once
}

// buildSession rebuilds the assigned agents from the workflow JSON —
// the wire carries the definition, not the specs: generated reduction
// functions and service bindings are reconstructed locally, exactly as
// the in-process engine builds them, once per run of assignments of one
// workflow (the node's plan cache); the agents share the plan's
// templates, except a recovered task's, which starts from the local
// solution its assignment carries.
func (n *Node) buildSession(session uint64, blob []byte) (*nodeSession, error) {
	var a Assignment
	if err := json.Unmarshal(blob, &a); err != nil {
		return nil, fmt.Errorf("bad assignment: %w", err)
	}
	if err := a.Chaos.Validate(); err != nil {
		return nil, fmt.Errorf("bad assignment: %w", err)
	}
	plan, err := n.plans.Plan(a.Workflow)
	if err != nil {
		return nil, err
	}
	specs, err := plan.Specs()
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, t := range a.Tasks {
		want[t] = true
	}
	var mine []workflow.AgentSpec
	for _, spec := range specs {
		if !want[spec.Task.Name] {
			continue
		}
		if enc, ok := a.Locals[spec.Task.Name]; ok {
			atoms, err := hocl.DecodeAtoms(enc)
			if err != nil {
				return nil, fmt.Errorf("bad assignment: task %s: %w", spec.Task.Name, err)
			}
			spec.Local = hocl.NewSolution(atoms...)
		}
		mine = append(mine, spec)
		delete(want, spec.Task.Name)
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("assignment names unknown tasks: %v", a.Tasks)
	}
	// Best-effort pre-flight: the statically-declared service of each
	// task must resolve locally (adaptation-swapped services resolve
	// lazily at invoke time and escalate if missing).
	for _, spec := range mine {
		if svc := spec.Task.Service; svc != "" {
			if _, ok := n.services.Lookup(svc); !ok {
				return nil, fmt.Errorf("service %q not registered on this node", svc)
			}
		}
	}

	scale := time.Duration(a.ScaleNS)
	if scale <= 0 {
		scale = time.Millisecond
	}
	clus := cluster.New(cluster.Config{Nodes: 1, Scale: scale})
	clock := clus.Clock()
	var chaos *failure.Schedule
	if a.Chaos.Enabled() {
		chaos = failure.NewSchedule(a.Chaos)
		chaos.SetSleeper(clock.Sleep)
	}

	recorder := trace.NewForwarder(clock)
	recorder.AddSink(func(e trace.Event) {
		n.rb.sendEvent(session, NodeEvent{
			At: e.At, Kind: string(e.Kind), Task: e.Task,
			Incarnation: e.Incarnation, Info: e.Info,
		})
	})
	sb := newSessionBroker(n.rb, a.TopicPrefix, a.Tasks)
	ns := &nodeSession{node: n, id: session, Supervisor: &agent.Supervisor{
		Config: agent.Config{
			Broker:      sb,
			Cluster:     clus,
			Services:    n.services,
			Chaos:       chaos,
			Retry:       a.Retry,
			SpaceTopic:  a.SpaceTopic,
			TopicPrefix: a.TopicPrefix,
			Trace:       recorder,
			Metrics:     agent.NewMetrics(nil),
		},
		RestartDelay:  a.RestartDelay,
		MaxRecoveries: a.MaxRecoveries,
	}}
	// The SUBSCRIBE frames are queued, not written and not waited for
	// (sessionBroker.Subscribe): the READY sent after the build carries
	// them all in one write, and is the barrier.
	if err := ns.Launch(mine); err != nil {
		return nil, err
	}
	return ns, nil
}

// fail reports the session's first unrecoverable error to the server.
func (ns *nodeSession) fail(err error) {
	ns.failOnce.Do(func() {
		b, _ := json.Marshal(nodeFailure{
			Err:              err.Error(),
			RetriesExhausted: errors.Is(err, failure.ErrRetriesExhausted),
		})
		ns.node.rb.sendSessionBlob(fFail, ns.id, b)
	})
}

// stopAndReport stops the session and reports DONE. Every event its
// agents recorded was sent before, on the same ordered link.
func (ns *nodeSession) stopAndReport() {
	ns.Stop()
	ns.node.rb.sendSession(fDone, ns.id)
	ns.node.removeSession(ns.id)
}

// sessionBroker is the broker one session's agents see on a worker. A
// publish to the inbox of a task this worker hosts in the session is
// delivered in process, and the manager receives a RECORD of it instead
// of a PUBLISH, so it counts and retains the message without sending it
// back. Every other publish, and every subscription's remote
// half, goes through the worker's RemoteBroker.
//
// The short-circuit lives here, not in RemoteBroker, because only the
// session knows where tasks are placed: only agents subscribe to inbox
// topics, one agent per task, and placement is fixed for the session's
// life. A generic client publishing to its own subscription still
// crosses the socket.
type sessionBroker struct {
	rb    *RemoteBroker
	local map[string]bool // inbox topics of this worker's tasks

	mu sync.Mutex
	// live holds the current subscription to each local topic with its
	// push half. A respawning agent has none: a publish in that gap is
	// recorded only, and the log broker replays it to the new
	// incarnation.
	live map[string]localSub
}

// localSub is the subscription an agent holds on a local topic, and the
// push that feeds it.
type localSub struct {
	sub  *mq.Subscription
	push func([]mq.Message)
}

var _ mq.Replayable = (*sessionBroker)(nil)

func newSessionBroker(rb *RemoteBroker, prefix string, tasks []string) *sessionBroker {
	sb := &sessionBroker{rb: rb, local: map[string]bool{}, live: map[string]localSub{}}
	for _, t := range tasks {
		sb.local[agent.Topic(prefix, t)] = true
	}
	return sb
}

// PublishAtoms publishes remotely, unless topic is local: then the
// RECORD is queued first and the message is pushed to the live
// subscriber, if any, with the sender's SEQ header unchanged. Queueing
// the RECORD first puts everything the delivery causes that reaches the
// manager (the consumer's status push, its own publishes and events)
// behind it on the ordered link, so the broker has counted and retained
// an inbox message before any status that reflects it reaches the space,
// and a respawned consumer's LOGREQ, sent later on the same link, reads
// a log that holds it.
func (sb *sessionBroker) PublishAtoms(topic string, atoms []hocl.Atom) error {
	if !sb.local[topic] {
		return sb.rb.PublishAtoms(topic, atoms)
	}
	if err := sb.rb.record(topic, atoms); err != nil {
		return err
	}
	sb.mu.Lock()
	ls, ok := sb.live[topic]
	sb.mu.Unlock()
	if ok {
		ls.push([]mq.Message{{Topic: topic, Atoms: atoms, Offset: -1}})
	}
	return nil
}

// Subscribe subscribes remotely and, on a local topic, also registers
// the subscription for in-process delivery: messages that start
// elsewhere (results from agents on other workers, which the manager
// forwards) still arrive through the remote half.
// Cancelling the subscription removes both halves.
//
// On a local topic the SUBSCRIBE is queued without a write or an ACK
// wait: the next frame this worker sends carries it, and the server
// dispatches in order, so the subscription is live before anything that
// frame or a later one causes. In a build that frame is READY; in a
// respawn it is the agent-started event agent.Run records right after
// subscribing (and, over the log broker, the LOGREQ of its replay).
func (sb *sessionBroker) Subscribe(topic string) (*mq.Subscription, error) {
	if !sb.local[topic] {
		return sb.rb.Subscribe(topic)
	}
	var id uint64
	var sub *mq.Subscription
	sub, push := mq.NewPushSubscription(func() {
		sb.mu.Lock()
		if sb.live[topic].sub == sub {
			delete(sb.live, topic)
		}
		sb.mu.Unlock()
		sb.rb.unsubscribe(id)
	})
	sb.mu.Lock()
	sb.live[topic] = localSub{sub: sub, push: push}
	sb.mu.Unlock()
	id, _, err := sb.rb.subscribe(topic, push)
	if err != nil {
		sub.Cancel()
		return nil, err
	}
	return sub, nil
}

// Log reads the serving broker's log of topic.
func (sb *sessionBroker) Log(topic string) ([]mq.Message, error) {
	return sb.rb.Log(topic)
}
