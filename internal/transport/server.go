package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/mq"
)

// handshakeTimeout bounds how long an accepted connection may take to
// present its HELLO (and a dialing client waits for its WELCOME).
const handshakeTimeout = 10 * time.Second

// maxSocketRedeliveries bounds the chaos drop chain at the socket
// boundary: a publish dropped this many times in a row is forced
// through, mirroring the broker chaos host's bounded-redelivery
// contract — the socket stays at-least-once, never lossy.
const maxSocketRedeliveries = 2

// ServerConfig wires a transport listener to its host.
type ServerConfig struct {
	// Broker is the in-process broker the listener fronts; remote
	// publishes land here and remote subscriptions are served from it.
	// Log requests are answered from it when it is mq.Replayable. A
	// worker's records of in-process deliveries go to its Record method
	// (the mq brokers have one).
	Broker mq.PubSub
	// Chaos, when enabled, perturbs the socket boundary: each remote
	// publish dispatch may be dropped (bounded redelivery), duplicated,
	// delayed or held for reordering before it reaches the broker.
	// RECORD frames are never perturbed (see Server.record). Nil
	// disables the hook. The schedule's sleeper provides the delay
	// clock.
	Chaos *failure.Schedule
}

// Server is the listener side of the network transport: it accepts
// worker connections, assigns node identities, bridges their publish
// and subscribe traffic onto the in-process broker, and carries the
// control conversation (assignments, readiness, start/stop, results)
// for remote sessions. A node's state — its reliable-link outbox,
// receive cursor and subscriptions — survives connection drops; a
// reconnecting worker resumes exactly where the socket broke.
type Server struct {
	cfg ServerConfig
	ln  net.Listener
	// rec is the broker's Record, nil when it has none (RECORD frames are
	// then dropped); decodeRecords is set when the broker keeps logs and
	// so needs a record's atoms.
	rec           recorder
	decodeRecords bool

	mu       sync.Mutex
	closed   bool
	nodes    map[uint64]*serverNode
	nextNode uint64
	sessions map[uint64]*RemoteSession

	wg sync.WaitGroup
}

// recorder is the serving broker's side of a RECORD frame (see
// mq.LogBroker.Record): count and retain a message without delivering
// it.
type recorder interface {
	Record(topic string, atoms []hocl.Atom) error
}

// serverNode is the server-side state of one worker, persistent across
// that worker's connections.
type serverNode struct {
	id   uint64
	name string
	link link

	mu sync.Mutex
	// subs holds the broker-side subscription behind each remote
	// subscription; cancelling one ends its forwarder goroutine.
	subs map[uint64]*mq.Subscription
}

// Listen starts a transport server on addr ("host:port"; ":0" picks a
// free port, see Addr).
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Broker == nil {
		return nil, fmt.Errorf("transport: listen: nil broker")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		nodes:    map[uint64]*serverNode{},
		sessions: map[uint64]*RemoteSession{},
	}
	s.rec, _ = cfg.Broker.(recorder)
	_, s.decodeRecords = cfg.Broker.(mq.Replayable)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address (the dial target for
// workers, resolving ":0" to the picked port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// NodeCount returns how many worker nodes have joined (connected or
// temporarily dropped; node state persists across reconnects).
func (s *Server) NodeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes)
}

// NodeIDs returns the joined nodes' handshake-assigned IDs, sorted.
func (s *Server) NodeIDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// DropConnections closes every node's current socket without touching
// node state — a test hook simulating network partitions; workers
// reconnect and resume through the outbox replay.
func (s *Server) DropConnections() {
	s.mu.Lock()
	nodes := make([]*serverNode, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.mu.Unlock()
	for _, n := range nodes {
		n.link.close()
	}
}

// DropNode closes one node's current socket (state kept, like
// DropConnections).
func (s *Server) DropNode(id uint64) {
	s.mu.Lock()
	n := s.nodes[id]
	s.mu.Unlock()
	if n != nil {
		n.link.close()
	}
}

// Close stops accepting, drops every connection and waits for the
// forwarders and connection handlers to unwind. Node and session state
// is discarded.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	nodes := make([]*serverNode, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, n := range nodes {
		n.link.close()
		n.mu.Lock()
		for id, sub := range n.subs {
			sub.Cancel()
			delete(n.subs, id)
		}
		n.mu.Unlock()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handshake(conn)
	}
}

// handshake consumes a connection's HELLO, resolves or creates its node
// identity, answers WELCOME and hands the socket to the node's link
// (which replays any unacknowledged frames). The connection's reader is
// created here and kept for its life, so no byte read past HELLO is lost.
func (s *Server) handshake(conn net.Conn) {
	defer s.wg.Done()
	r := bufio.NewReaderSize(conn, readBufSize)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := readFrame(r)
	if err != nil || typ != fHello {
		conn.Close()
		return
	}
	h, err := parseHello(payload)
	if err != nil || h.version != protocolVersion {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	var n *serverNode
	if h.nodeID == 0 {
		s.nextNode++
		n = &serverNode{id: s.nextNode, name: h.name, subs: map[uint64]*mq.Subscription{}}
		s.nodes[n.id] = n
	} else {
		n = s.nodes[h.nodeID]
		if n == nil {
			// An identity this server never assigned (or a server
			// restart): the worker's broker state is unrecoverable here,
			// so reject rather than silently resume with a hole.
			s.mu.Unlock()
			conn.Close()
			return
		}
	}
	s.mu.Unlock()

	n.link.onAck(h.lastSeq)
	w := welcomeFrame{version: protocolVersion, nodeID: n.id, lastSeq: n.link.received()}
	if err := writeFrame(conn, fWelcome, encodeWelcome(w)); err != nil {
		conn.Close()
		return
	}
	n.link.attach(conn)
	s.wg.Add(1)
	go s.serveConn(n, conn, r)
}

// serveConn reads one connection until it breaks (see link.serve for
// the dedup and ACK discipline).
func (s *Server) serveConn(n *serverNode, conn net.Conn, r *bufio.Reader) {
	defer s.wg.Done()
	defer n.link.detach(conn)
	n.link.serve(r, func(typ byte, c *cursor) error { return s.dispatch(n, typ, c) })
}

// dispatch handles one fresh reliable frame from a worker.
func (s *Server) dispatch(n *serverNode, typ byte, c *cursor) error {
	switch typ {
	case fSubscribe:
		subID, err := c.uvarint()
		if err != nil {
			return err
		}
		topic, err := c.str()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		sub, err := s.cfg.Broker.Subscribe(topic)
		if err != nil {
			return err
		}
		n.mu.Lock()
		if _, dup := n.subs[subID]; dup {
			n.mu.Unlock()
			sub.Cancel()
			return nil
		}
		n.subs[subID] = sub
		n.mu.Unlock()
		s.wg.Add(1)
		go s.forward(n, subID, topic, sub)
		return nil

	case fUnsubscribe:
		subID, err := c.uvarint()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		n.mu.Lock()
		sub := n.subs[subID]
		delete(n.subs, subID)
		n.mu.Unlock()
		if sub != nil {
			sub.Cancel()
		}
		return nil

	case fPublish:
		p, err := parsePublish(c)
		if err != nil {
			return err
		}
		s.deliverPublish(p, 1)
		return nil

	case fRecord:
		p, err := parsePublish(c)
		if err != nil {
			return err
		}
		s.record(p)
		return nil

	case fLogReq:
		reqID, err := c.uvarint()
		if err != nil {
			return err
		}
		topic, err := c.str()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		var msgs []wireMsg
		if rep, ok := s.cfg.Broker.(mq.Replayable); ok {
			log, _ := rep.Log(topic) // an in-process log read never fails
			msgs = make([]wireMsg, len(log))
			for i := range log {
				msgs[i] = toWireMsg(log[i])
			}
		}
		n.link.send(fLogResp, func(seq uint64) []byte {
			buf := binary.AppendUvarint(nil, seq)
			buf = binary.AppendUvarint(buf, reqID)
			return encodeMsgs(buf, msgs)
		})
		return nil

	case fReady, fFail, fDone, fEvent:
		return s.dispatchSession(n, typ, c)
	}
	return fmt.Errorf("%w: unexpected type %d from worker", errFrame, typ)
}

// dispatchSession routes a session-scoped frame to its RemoteSession
// (silently dropped if the session is gone — a late frame after Close).
// It runs on the worker's read loop, so a session's hooks see that
// worker's reports in the order they were sent.
func (s *Server) dispatchSession(n *serverNode, typ byte, c *cursor) error {
	var session uint64
	var blob []byte
	var ev NodeEvent
	var err error
	switch typ {
	case fReady, fDone:
		if session, err = c.uvarint(); err == nil {
			err = c.done()
		}
	case fEvent:
		session, ev, err = parseEvent(c)
	default:
		session, blob, err = parseSessionBlob(c)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	rs := s.sessions[session]
	s.mu.Unlock()
	if rs == nil {
		return nil
	}
	switch typ {
	case fReady:
		rs.mark(n.id, rs.ready, rs.readyCh)
	case fDone:
		rs.mark(n.id, rs.done, rs.doneCh)
	case fFail:
		rs.reportFailure(n.id, blob)
	case fEvent:
		if rs.hooks.Event != nil {
			ev.Node = n.id
			rs.hooks.Event(ev)
		}
	}
	return nil
}

// forward streams one broker subscription to its remote subscriber
// until the subscription is cancelled. Each batch is encoded into as
// few BATCH frames as the frame cap allows and each is sent reliably, so
// a batch that raced a connection drop is replayed on reconnect. A
// message too large for a frame of its own cannot be forwarded: it is
// counted and reported (tooLarge), and the rest of its batch still goes.
func (s *Server) forward(n *serverNode, subID uint64, topic string, sub *mq.Subscription) {
	defer s.wg.Done()
	for {
		batch, err := sub.Next(context.Background())
		if err != nil {
			return
		}
		msgs := make([]wireMsg, len(batch))
		for i := range batch {
			msgs[i] = toWireMsg(batch[i])
		}
		for len(msgs) > 0 {
			k := fitFrame(msgs)
			if k == 0 {
				s.tooLarge(n.id, topic, len(msgs[0].data))
				msgs = msgs[1:]
				continue
			}
			part := msgs[:k]
			// fitFrame kept the frame under the cap, the one reason
			// send refuses a frame.
			_, _ = n.link.send(fBatch, func(seq uint64) []byte {
				buf := binary.AppendUvarint(nil, seq)
				buf = binary.AppendUvarint(buf, subID)
				return encodeMsgs(buf, part)
			})
			msgs = msgs[k:]
		}
	}
}

// batchOverhead bounds a BATCH frame's bytes besides its messages: the
// type byte and the sequence, subscription and count uvarints.
const batchOverhead = 1 + 3*binary.MaxVarintLen64

// fitFrame returns how many leading messages of msgs fit in one BATCH
// frame, counting every varint at its widest; 0 means the first does
// not fit on its own.
func fitFrame(msgs []wireMsg) int {
	size := batchOverhead
	for i, m := range msgs {
		size += 2*binary.MaxVarintLen64 + len(m.data)
		if size > maxFrame {
			return i
		}
	}
	return len(msgs)
}

// ErrMessageTooLarge reports a message the server could not forward to
// a remote subscriber because, encoded, it exceeds the frame cap on its
// own. It fails the session whose inbox topic the message was
// published on.
type ErrMessageTooLarge struct {
	// Node is the subscriber's worker.
	Node uint64
	// Topic is the message's topic.
	Topic string
	// Bytes is the message's encoded size.
	Bytes int
}

// Error renders the failure.
func (e *ErrMessageTooLarge) Error() string {
	return fmt.Sprintf("transport: %d-byte message on %q exceeds the %d-byte frame cap for node %d",
		e.Bytes, e.Topic, maxFrame, e.Node)
}

// tooLarge counts a message that cannot be forwarded and fails every
// session whose inbox topics include topic with an *ErrMessageTooLarge.
func (s *Server) tooLarge(node uint64, topic string, bytes int) {
	metOversized.Inc()
	err := &ErrMessageTooLarge{Node: node, Topic: topic, Bytes: bytes}
	var fails []func(error)
	s.mu.Lock()
	for _, rs := range s.sessions {
		if rs.hooks.Fail != nil && rs.topicPrefix != "" && strings.HasPrefix(topic, rs.topicPrefix) {
			fails = append(fails, rs.hooks.Fail)
		}
	}
	s.mu.Unlock()
	for _, fail := range fails {
		fail(err)
	}
}

// deliverPublish is the socket-boundary chaos hook: a remote publish
// dispatch may be dropped (bounded, then forced through), duplicated,
// delayed or held back so the dispatch behind it overtakes — the
// real-network fault mix, injected after the frame protocol's own
// sequence dedup so connection-resume logic is never the thing hiding
// a fault. Delays sleep on the chaos schedule's clock.
func (s *Server) deliverPublish(p publishFrame, attempt int) {
	if s.cfg.Chaos.Active(failure.BoundarySocket) {
		cfg := s.cfg.Chaos.Config()
		switch f := s.cfg.Chaos.Draw(failure.BoundarySocket); f.Kind {
		case failure.FaultDrop:
			if attempt <= maxSocketRedeliveries {
				s.chaosGo(cfg.RedeliverDelay, func() { s.deliverPublish(p, attempt+1) })
				return
			}
			// Redelivery budget spent: force the publish through. The
			// socket models at-least-once, never loss.
		case failure.FaultDuplicate:
			s.chaosGo(cfg.RedeliverDelay, func() { s.publish(p) })
		case failure.FaultDelay:
			s.chaosGo(f.Delay, func() { s.publish(p) })
			return
		case failure.FaultReorder:
			s.chaosGo(cfg.RedeliverDelay, func() { s.publish(p) })
			return
		}
	}
	s.publish(p)
}

// chaosGo runs fn after a model-time delay, tracked by the server's
// wait group so Close drains in-flight chaos deliveries.
func (s *Server) chaosGo(delay float64, fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.cfg.Chaos.Sleep(delay)
		fn()
	}()
}

// publish lands one remote publish on the broker. Undecodable payloads
// are dropped — a poisoned frame must not kill the bridge.
func (s *Server) publish(p publishFrame) {
	atoms, err := hocl.DecodeAtoms(p.data)
	if err != nil {
		return
	}
	_ = s.cfg.Broker.PublishAtoms(p.topic, atoms)
}

// record accounts for a message a worker delivered in process. It skips
// socket chaos: a record delayed past the LOGREQ of the consumer's
// respawned incarnation would lose a result no live delivery restores.
// Only a broker that keeps logs retains the atoms, so only it pays
// their decode; on any other broker a record is a counter bump.
func (s *Server) record(p publishFrame) {
	if s.rec == nil {
		return
	}
	var atoms []hocl.Atom
	if s.decodeRecords {
		var err error
		if atoms, err = hocl.DecodeAtoms(p.data); err != nil {
			return
		}
	}
	_ = s.rec.Record(p.topic, atoms)
}

// toWireMsg encodes a broker message for the wire, copying the payload
// out of the broker-owned batch buffer.
func toWireMsg(m mq.Message) wireMsg {
	return wireMsg{offset: int64(m.Offset), data: hocl.EncodeAtoms(m.Atoms)}
}

// fromWireMsg decodes a wire message back into a broker message.
func fromWireMsg(topic string, w wireMsg) (mq.Message, error) {
	atoms, err := hocl.DecodeAtoms(w.data)
	return mq.Message{Topic: topic, Offset: int(w.offset), Atoms: atoms}, err
}

// Assignment is the work order a remote session sends each worker: the
// workflow (JSON, rebuilt node-side into agent specs — service
// implementations and generated functions cannot travel), the subset of
// tasks the worker hosts, the recovered local solutions of a session
// rebuilt from its journal, and the tuning the in-process engine would
// have applied (restart budget, fault schedule, clock scale).
type Assignment struct {
	// SpaceTopic and TopicPrefix scope the agents to the session's
	// broker namespace, exactly as the in-process supervisor would.
	SpaceTopic  string `json:"space_topic"`
	TopicPrefix string `json:"topic_prefix"`
	// Workflow is the session's workflow definition JSON.
	Workflow json.RawMessage `json:"workflow"`
	// Tasks names the agents this worker hosts.
	Tasks []string `json:"tasks"`
	// Locals holds, for each task of a recovered session, its recovered
	// local solution in the hocl wire codec (hocl.EncodeAtoms, rules
	// included): the task's first incarnation starts from it instead of
	// the workflow's template.
	Locals map[string][]byte `json:"locals,omitempty"`
	// RestartDelay / MaxRecoveries tune the node-side supervisor loop.
	RestartDelay  float64 `json:"restart_delay,omitempty"`
	MaxRecoveries int     `json:"max_recoveries,omitempty"`
	// ScaleNS is the model clock scale in nanoseconds per model second.
	ScaleNS int64 `json:"scale_ns,omitempty"`
	// Chaos parameterises the worker's fault schedule (agent crashes
	// and invocation faults); Retry bounds its retries. The node rejects
	// an assignment whose config fails ChaosConfig.Validate.
	Chaos failure.ChaosConfig `json:"chaos,omitempty"`
	Retry failure.RetryConfig `json:"retry,omitempty"`
}

// nodeFailure is a worker's early-failure report (an escalated agent or
// a spent recovery budget).
type nodeFailure struct {
	Err              string `json:"err"`
	RetriesExhausted bool   `json:"retries_exhausted,omitempty"`
}

// NodeEvent is one trace event forwarded from a worker's agents.
type NodeEvent struct {
	// Node is the emitting worker's handshake-assigned ID.
	Node uint64 `json:"node"`
	// At is the worker-local model time of the event.
	At float64 `json:"at"`
	// Kind, Task, Incarnation and Info mirror trace.Event.
	Kind        string `json:"kind"`
	Task        string `json:"task"`
	Incarnation int    `json:"incarnation"`
	Info        string `json:"info"`
}

// ErrNodeFailed wraps a worker's early-failure report.
type ErrNodeFailed struct {
	// Node identifies the failing worker.
	Node uint64
	// Msg is the worker's rendered error.
	Msg string
	// RetriesExhausted marks a spent retry budget (matches
	// failure.ErrRetriesExhausted through Unwrap at the call site).
	RetriesExhausted bool
}

// Error renders the failure.
func (e *ErrNodeFailed) Error() string {
	return fmt.Sprintf("transport: node %d failed: %s", e.Node, e.Msg)
}

// SessionHooks receive a remote session's worker reports. Event and
// Fail run on the reporting worker's read loop, so one worker's reports
// arrive in the order it sent them, and every event a worker recorded
// precedes its DONE: the session has seen them all when WaitDone
// returns. A hook must not block: it runs where link.serve requires
// that no dispatch wait on the peer, and the read loop owes the worker
// an ACK. A nil hook drops its reports.
type SessionHooks struct {
	// Event receives one trace event from a worker's agents, with Node
	// stamped from the connection.
	Event func(NodeEvent)
	// Fail receives a worker's early failure (an escalated agent, a
	// spent recovery budget, or an assignment it could not build, sent
	// instead of READY) as an *ErrNodeFailed. Each worker fails a
	// session at most once, but several workers may. It also receives
	// an *ErrMessageTooLarge for each message on one of the session's
	// inbox topics that no frame can carry to its worker.
	Fail func(error)
}

// RemoteSession is the server-side handle of one workflow session's
// remote enactment: it tracks which workers were assigned, barriers on
// their readiness, starts and stops them, and hands their reports to
// the session's hooks.
type RemoteSession struct {
	id     uint64
	server *Server
	nodes  []uint64
	hooks  SessionHooks
	// topicPrefix prefixes the session's inbox topics, as its
	// assignments give it.
	topicPrefix string

	mu      sync.Mutex
	ready   map[uint64]bool
	done    map[uint64]bool
	readyCh chan struct{}
	doneCh  chan struct{}
	started bool
	stopped bool
}

// StartRemote registers a remote session and sends each worker its
// assignment. The workers answer READY once their agents are built and
// subscribed; barrier on that with WaitReady, then Start. The workers'
// reports go to hooks from here on.
func (s *Server) StartRemote(session uint64, assigns map[uint64]Assignment, hooks SessionHooks) (*RemoteSession, error) {
	if len(assigns) == 0 {
		return nil, fmt.Errorf("transport: session %d: no assignments", session)
	}
	rs := &RemoteSession{
		id:      session,
		server:  s,
		hooks:   hooks,
		ready:   map[uint64]bool{},
		done:    map[uint64]bool{},
		readyCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("transport: server closed")
	}
	if _, dup := s.sessions[session]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("transport: session %d already active", session)
	}
	nodes := make([]*serverNode, 0, len(assigns))
	for id, a := range assigns {
		rs.topicPrefix = a.TopicPrefix
		n := s.nodes[id]
		if n == nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("transport: session %d: unknown node %d", session, id)
		}
		nodes = append(nodes, n)
		rs.nodes = append(rs.nodes, id)
	}
	sort.Slice(rs.nodes, func(i, j int) bool { return rs.nodes[i] < rs.nodes[j] })
	s.sessions[session] = rs
	s.mu.Unlock()

	// An assignment that cannot be sent fails the session; the workers
	// already assigned are told to stop, so none keeps its share.
	for _, n := range nodes {
		blob, err := json.Marshal(assigns[n.id])
		if err == nil {
			_, err = n.link.send(fAssign, func(seq uint64) []byte {
				return encodeSessionBlob(seq, session, blob)
			})
		}
		if err != nil {
			rs.Stop()
			rs.Close()
			return nil, fmt.Errorf("transport: session %d: assignment to node %d: %w", session, n.id, err)
		}
	}
	return rs, nil
}

func (rs *RemoteSession) hasNode(id uint64) bool {
	for _, n := range rs.nodes {
		if n == id {
			return true
		}
	}
	return false
}

// WaitReady blocks until every assigned worker reported READY (its
// agents built and subscribed) or ctx ends.
func (rs *RemoteSession) WaitReady(ctx context.Context) error {
	select {
	case <-rs.readyCh:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("transport: session %d: workers not ready: %w", rs.id, context.Cause(ctx))
	}
}

// Start tells every worker to launch its agents. Call after WaitReady:
// the READY barrier guarantees every inbox subscription reached the
// broker before any agent reduces (the same no-publish-into-the-void
// ordering the in-process engine enforces).
func (rs *RemoteSession) Start() {
	rs.mu.Lock()
	if rs.started {
		rs.mu.Unlock()
		return
	}
	rs.started = true
	rs.mu.Unlock()
	rs.sendAll(fStart)
}

// Stop tells every worker to wind its agents down and report DONE.
func (rs *RemoteSession) Stop() {
	rs.mu.Lock()
	if rs.stopped {
		rs.mu.Unlock()
		return
	}
	rs.stopped = true
	rs.mu.Unlock()
	rs.sendAll(fStop)
}

func (rs *RemoteSession) sendAll(typ byte) {
	rs.server.mu.Lock()
	nodes := make([]*serverNode, 0, len(rs.nodes))
	for _, id := range rs.nodes {
		if n := rs.server.nodes[id]; n != nil {
			nodes = append(nodes, n)
		}
	}
	rs.server.mu.Unlock()
	for _, n := range nodes {
		n.link.send(typ, func(seq uint64) []byte { return encodeSession(seq, rs.id) })
	}
}

// WaitDone blocks until every worker reported DONE or ctx ends. A
// worker's DONE follows everything it reported, so by then the hooks
// have seen every event of every worker.
func (rs *RemoteSession) WaitDone(ctx context.Context) error {
	select {
	case <-rs.doneCh:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("transport: session %d: workers not done: %w", rs.id, context.Cause(ctx))
	}
}

// Close unregisters the session from the server; late frames for it
// are dropped.
func (rs *RemoteSession) Close() {
	rs.server.mu.Lock()
	if rs.server.sessions[rs.id] == rs {
		delete(rs.server.sessions, rs.id)
	}
	rs.server.mu.Unlock()
}

// mark records node's READY or DONE in seen and closes all once every
// assigned worker has reported it.
func (rs *RemoteSession) mark(node uint64, seen map[uint64]bool, all chan struct{}) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if seen[node] || !rs.hasNode(node) {
		return
	}
	seen[node] = true
	if len(seen) == len(rs.nodes) {
		close(all)
	}
}

func (rs *RemoteSession) reportFailure(node uint64, blob []byte) {
	if rs.hooks.Fail == nil {
		return
	}
	var nf nodeFailure
	if err := json.Unmarshal(blob, &nf); err != nil {
		nf.Err = fmt.Sprintf("unparseable failure report: %v", err)
	}
	rs.hooks.Fail(&ErrNodeFailed{Node: node, Msg: nf.Err, RetriesExhausted: nf.RetriesExhausted})
}
