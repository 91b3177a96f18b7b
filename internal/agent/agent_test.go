package agent

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
	"ginflow/internal/space"
	"ginflow/internal/workflow"
)

func testCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{Nodes: 2, CoresPerNode: 4, Scale: 20 * time.Microsecond})
}

// twoAgentSpecs builds the producer/consumer pair T1 -> T2.
func twoAgentSpecs(t *testing.T) (workflow.AgentSpec, workflow.AgentSpec) {
	t.Helper()
	def := &workflow.Definition{Name: "pair", Tasks: []workflow.Task{
		{ID: "T1", Service: "s1", In: []string{"input"}, Dst: []string{"T2"}},
		{ID: "T2", Service: "s2"},
	}}
	specs, err := def.TranslateAgents()
	if err != nil {
		t.Fatal(err)
	}
	return specs[0], specs[1]
}

func noopRegistry(duration float64, names ...string) *Registry {
	r := NewRegistry()
	r.RegisterNoop(duration, names...)
	return r
}

func waitStatus(t *testing.T, sp *space.Space, task string, want hoclflow.Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sp.Status(task) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("task %s never reached %v (is %v)", task, want, sp.Status(task))
}

// startSpace wires a Space to the broker and returns it.
func startSpace(t *testing.T, ctx context.Context, broker mq.Broker) *space.Space {
	t.Helper()
	sp := space.New()
	// Subscribe before agents publish.
	if err := sp.Attach(broker, ""); err != nil {
		t.Fatal(err)
	}
	go sp.Serve(ctx, broker, "")
	return sp
}

// TestTwoAgentPipeline runs the decentralised data path end to end:
// producer invokes, sends P2P, consumer receives, invokes, reports.
func TestTwoAgentPipeline(t *testing.T) {
	clus := testCluster()
	broker := mq.NewQueueBrokerSharded(clus.Clock(), 0.0001, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sp := startSpace(t, ctx, broker)

	p, c := twoAgentSpecs(t)
	services := noopRegistry(0.01, "s1", "s2")
	var agents []*Agent
	for _, spec := range []workflow.AgentSpec{p, c} { // producer first: the
		// subscription barrier must make start order irrelevant
		a := New(Config{
			Spec: spec, Broker: broker, Cluster: clus,
			Node: clus.Node(0), Services: services,
		})
		if err := a.Subscribe(); err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	for _, a := range agents {
		go a.Run(ctx)
	}
	waitStatus(t, sp, "T2", hoclflow.StatusCompleted)
	res := sp.Results("T2")
	if len(res) != 1 || !res[0].Equal(hocl.Str("out-s2")) {
		t.Errorf("T2 results = %v", res)
	}
	// T1's last push may fold after T2's: wait for it as for T2.
	waitStatus(t, sp, "T1", hoclflow.StatusCompleted)
}

// TestAgentCrashAndReplayRecovery exercises §IV-B end to end by hand:
// the consumer crashes mid-service, a new incarnation replays its Kafka
// inbox and completes.
func TestAgentCrashAndReplayRecovery(t *testing.T) {
	clus := testCluster()
	broker := mq.NewLogBrokerSharded(clus.Clock(), 0.0001, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sp := startSpace(t, ctx, broker)

	p, c := twoAgentSpecs(t)
	services := noopRegistry(0.05, "s1", "s2")

	// Crash schedule: every invocation crashes 0.01 s in.
	crash := failure.NewSchedule(failure.ChaosConfig{Seed: 5, AgentCrashP: 1, AgentCrashAfter: 0.01})

	// Consumer incarnation 0 with injection enabled.
	crashed := make(chan error, 1)
	a0 := New(Config{
		Spec: c, Broker: broker, Cluster: clus, Node: clus.Node(0),
		Services: services, Chaos: crash,
	})
	if err := a0.Subscribe(); err != nil {
		t.Fatal(err)
	}
	go func() { crashed <- a0.Run(ctx) }()

	// Producer (no injection).
	prod := New(Config{
		Spec: p, Broker: broker, Cluster: clus, Node: clus.Node(1),
		Services: services,
	})
	go prod.Run(ctx)

	select {
	case err := <-crashed:
		if !IsCrash(err) {
			t.Fatalf("want crash, got %v", err)
		}
		var ce *CrashError
		if !errors.As(err, &ce) || ce.Task != "T2" || ce.Incarnation != 0 {
			t.Fatalf("crash detail: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer never crashed")
	}
	if sp.Status("T2") == hoclflow.StatusCompleted {
		t.Fatal("T2 completed despite crash")
	}

	// Recovery: incarnation 1, injection disabled, replays the log.
	a1 := New(Config{
		Spec: c, Broker: broker, Cluster: clus, Node: clus.Node(0),
		Services: services, Incarnation: 1,
	})
	go a1.Run(ctx)
	waitStatus(t, sp, "T2", hoclflow.StatusCompleted)
}

// TestAgentRecoveryImpossibleOnQueueBroker: with the ActiveMQ-like
// broker the pre-crash messages are gone, so a respawned consumer stalls
// — the behaviour that justifies Kafka for resilience (§IV-B).
func TestAgentRecoveryImpossibleOnQueueBroker(t *testing.T) {
	clus := testCluster()
	broker := mq.NewQueueBrokerSharded(clus.Clock(), 0.0001, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sp := startSpace(t, ctx, broker)

	p, c := twoAgentSpecs(t)
	services := noopRegistry(0.01, "s1", "s2")

	// Producer runs and completes while the consumer is dead.
	prod := New(Config{Spec: p, Broker: broker, Cluster: clus, Node: clus.Node(1), Services: services})
	go prod.Run(ctx)
	waitStatus(t, sp, "T1", hoclflow.StatusCompleted)
	time.Sleep(10 * time.Millisecond) // let the P2P message evaporate

	// "Recovered" consumer: nothing to replay on a queue broker.
	a1 := New(Config{
		Spec: c, Broker: broker, Cluster: clus, Node: clus.Node(0),
		Services: services, Incarnation: 1,
	})
	go a1.Run(ctx)
	time.Sleep(50 * time.Millisecond)
	if sp.Status("T2") == hoclflow.StatusCompleted {
		t.Fatal("consumer completed without its input — impossible")
	}
}

// TestAgentDistributedAdaptation wires the paper's adaptive diamond
// through real agents and a broker: T2's service errors, the trigger
// fans ADAPT out, T1 re-sends to T2', T4 completes.
func TestAgentDistributedAdaptation(t *testing.T) {
	def := &workflow.Definition{
		Name: "adaptive",
		Tasks: []workflow.Task{
			{ID: "T1", Service: "s1", In: []string{"input"}, Dst: []string{"T2", "T3"}},
			{ID: "T2", Service: "s2", Dst: []string{"T4"}},
			{ID: "T3", Service: "s3", Dst: []string{"T4"}},
			{ID: "T4", Service: "s4"},
		},
		Adaptations: []workflow.Adaptation{{
			ID: "a1", Faulty: []string{"T2"},
			Replacement: []workflow.ReplacementTask{
				{ID: "T2'", Service: "s2alt", Src: []string{"T1"}, Dst: []string{"T4"}},
			},
		}},
	}
	specs, err := def.TranslateAgents()
	if err != nil {
		t.Fatal(err)
	}

	clus := testCluster()
	broker := mq.NewQueueBrokerSharded(clus.Clock(), 0.0001, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sp := startSpace(t, ctx, broker)

	services := noopRegistry(0.01, "s1", "s3", "s4", "s2alt")
	services.RegisterFailing("s2", 0.01)

	var agents []*Agent
	for _, spec := range specs {
		a := New(Config{
			Spec: spec, Broker: broker, Cluster: clus,
			Node: clus.Node(0), Services: services,
		})
		if err := a.Subscribe(); err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	for _, a := range agents {
		go a.Run(ctx)
	}
	waitStatus(t, sp, "T4", hoclflow.StatusCompleted)
	if got := sp.Triggered(); len(got) != 1 || got[0] != "a1" {
		t.Errorf("triggered adaptations = %v", got)
	}
	waitStatus(t, sp, "T2'", hoclflow.StatusCompleted)
}

func TestServiceRegistry(t *testing.T) {
	r := NewRegistry()
	r.RegisterNoop(0.5, "a", "b")
	r.RegisterFunc("c", 1.0, func(params []hocl.Atom) (hocl.Atom, error) {
		return hocl.Int(int64(len(params))), nil
	})
	r.RegisterFailing("f", 0.1)

	for _, name := range []string{"a", "b", "c", "f"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("service %q not registered", name)
		}
	}
	svc, ok := r.Lookup("a")
	if !ok || svc.Duration != 0.5 {
		t.Errorf("noop service: %+v", svc)
	}
	out, err := svc.Invoke(nil)
	if err != nil || !out.Equal(hocl.Str("out-a")) {
		t.Errorf("noop invoke: %v, %v", out, err)
	}
	cSvc, _ := r.Lookup("c")
	out, err = cSvc.Invoke([]hocl.Atom{hocl.Int(1), hocl.Int(2)})
	if err != nil || !out.Equal(hocl.Int(2)) {
		t.Errorf("computed invoke: %v, %v", out, err)
	}
	fSvc, _ := r.Lookup("f")
	if _, err := fSvc.Invoke(nil); err == nil {
		t.Error("failing service returned no error")
	}
	if _, ok := r.Lookup("nosuch"); ok {
		t.Error("phantom service")
	}
	// Zero-value registry is usable.
	var z Registry
	z.RegisterNoop(0, "zv")
	if _, ok := z.Lookup("zv"); !ok {
		t.Error("zero-value registry broken")
	}
}

func TestTopicNaming(t *testing.T) {
	if got := Topic("", "T1"); got != "sa.T1" {
		t.Errorf("Topic = %q", got)
	}
	if got := Topic("x.", "T1"); got != "x.T1" {
		t.Errorf("Topic = %q", got)
	}
}

// TestAgentIngestEmptyMessageIsNoop: a message without atoms leaves the
// local solution untouched; a message with atoms lands.
func TestAgentIngestEmptyMessageIsNoop(t *testing.T) {
	clus := testCluster()
	p, _ := twoAgentSpecs(t)
	a := New(Config{
		Spec: p, Broker: mq.NewQueueBrokerSharded(clus.Clock(), 0.0001, 0),
		Cluster: clus, Node: clus.Node(0), Services: noopRegistry(0, "s1"),
	})
	before := a.local.Len()
	a.ingest(mq.Message{})
	a.ingest(mq.Message{Atoms: []hocl.Atom{}})
	if a.local.Len() != before {
		t.Error("empty message mutated the local solution")
	}
	a.ingest(mq.Message{Atoms: []hocl.Atom{hocl.Ident("GOODATOM")}})
	if a.local.Len() != before+1 {
		t.Error("atoms not ingested")
	}
}

func TestInvokeUnknownServiceIsFatal(t *testing.T) {
	clus := testCluster()
	p, _ := twoAgentSpecs(t)
	a := New(Config{
		Spec: p, Broker: mq.NewQueueBrokerSharded(clus.Clock(), 0.0001, 0),
		Cluster: clus, Node: clus.Node(0), Services: NewRegistry(), // empty!
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := a.Run(ctx)
	if err == nil || IsCrash(err) {
		t.Fatalf("want configuration error, got %v", err)
	}
}

func TestCrashErrorFormatting(t *testing.T) {
	err := &CrashError{Task: "T1", Incarnation: 2, At: 3.5}
	msg := err.Error()
	for _, frag := range []string{"T1", "2", "3.5"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q missing %q", msg, frag)
		}
	}
	if IsCrash(fmt.Errorf("plain")) {
		t.Error("plain error classified as crash")
	}
	if !IsCrash(fmt.Errorf("wrapped: %w", err)) {
		t.Error("wrapped crash not detected")
	}
}

// TestPushStatusDeduplicatesByFingerprint pins the cheap-dedup satellite:
// reducing an unchanged solution publishes exactly one status message,
// and a state change publishes again.
func TestPushStatusDeduplicatesByFingerprint(t *testing.T) {
	clus := testCluster()
	broker := mq.NewQueueBrokerSharded(clus.Clock(), 0.0001, 0)
	p, _ := twoAgentSpecs(t)
	a := New(Config{
		Spec: p, Broker: broker, Cluster: clus, Node: clus.Node(0),
		Services: noopRegistry(0, "s1"),
	})
	a.pushStatus()
	if got := broker.PublishedPrefix(""); got != 1 {
		t.Fatalf("first push published %d messages, want 1", got)
	}
	a.pushStatus() // unchanged state: deduplicated
	if got := broker.PublishedPrefix(""); got != 1 {
		t.Errorf("unchanged push published %d messages, want 1", got)
	}
	a.local.Add(hocl.Ident("NEWSTATE"))
	a.pushStatus()
	if got := broker.PublishedPrefix(""); got != 2 {
		t.Errorf("changed push published %d messages, want 2", got)
	}
}

// TestIngestSharesFrozenAtoms asserts the structural ingest contract:
// shareable (frozen) atoms enter the local solution by reference, while
// atoms containing an active solution are isolated by cloning.
func TestIngestSharesFrozenAtoms(t *testing.T) {
	clus := testCluster()
	p, _ := twoAgentSpecs(t)
	a := New(Config{
		Spec: p, Broker: mq.NewQueueBrokerSharded(clus.Clock(), 0.0001, 0),
		Cluster: clus, Node: clus.Node(0), Services: noopRegistry(0, "s1"),
	})

	frozen := hoclflow.PassMessage("T0", []hocl.Atom{hocl.Str("r")})
	a.ingest(mq.Message{Atoms: []hocl.Atom{frozen}})
	got := a.local.At(a.local.Len() - 1)
	if gt, ok := got.(hocl.Tuple); !ok || gt[2].(*hocl.Solution) != frozen.(hocl.Tuple)[2].(*hocl.Solution) {
		t.Error("frozen PASS payload was not shared by reference")
	}

	active := hocl.NewSolution(hocl.Str("r")) // not inert: must be cloned
	a.ingest(mq.Message{Atoms: []hocl.Atom{active}})
	got = a.local.At(a.local.Len() - 1)
	if got.(*hocl.Solution) == active {
		t.Error("active solution was shared; the engine could mutate the sender's copy")
	}
	if !got.Equal(active) {
		t.Errorf("clone diverged: %v", got)
	}
}
