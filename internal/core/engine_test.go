package core

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
	"ginflow/internal/workflow"
)

// fastCluster keeps integration tests quick: 50 µs per model second.
// Setting GINFLOW_VIRTUAL (any non-empty value) reruns the same tests
// on the discrete-event virtual clock instead — CI uses this to soak
// the chaos suite under both timing models.
func fastCluster(nodes int) cluster.Config {
	return cluster.Config{
		Nodes:        nodes,
		CoresPerNode: 24,
		Scale:        50 * time.Microsecond,
		Virtual:      os.Getenv("GINFLOW_VIRTUAL") != "",
	}
}

func diamondServices(reg *agent.Registry) *agent.Registry {
	if reg == nil {
		reg = agent.NewRegistry()
	}
	reg.RegisterNoop(0.1, "split", "work", "merge", "workalt")
	return reg
}

func runDiamond(t *testing.T, h, v int, cfg Config) *Report {
	t.Helper()
	def := workflow.Diamond(workflow.DefaultDiamondSpec(h, v, false))
	rep, err := Run(context.Background(), def, diamondServices(nil), cfg)
	if err != nil {
		t.Fatalf("run: %v (report %v)", err, rep)
	}
	return rep
}

func TestRunCentralizedDiamond(t *testing.T) {
	rep := runDiamond(t, 2, 2, Config{
		Executor: executor.KindCentralized,
		Cluster:  fastCluster(4),
	})
	if rep.Executor != "centralized" || rep.Agents != 0 {
		t.Errorf("report: %+v", rep)
	}
	if got := rep.Statuses[workflow.DiamondMergeName]; got != hoclflow.StatusCompleted {
		t.Errorf("merge = %v", got)
	}
	if len(rep.Results[workflow.DiamondMergeName]) != 1 {
		t.Errorf("results: %v", rep.Results)
	}
	if rep.ExecTime <= 0 {
		t.Errorf("exec time = %v", rep.ExecTime)
	}
}

func TestRunDistributedSSHQueue(t *testing.T) {
	rep := runDiamond(t, 3, 3, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(5),
	})
	if rep.Agents != 11 {
		t.Errorf("agents = %d, want 11", rep.Agents)
	}
	if rep.DeployTime <= 0 || rep.ExecTime <= 0 {
		t.Errorf("times: %+v", rep)
	}
	if got := rep.Statuses[workflow.DiamondMergeName]; got != hoclflow.StatusCompleted {
		t.Errorf("merge = %v", got)
	}
	if rep.Messages == 0 {
		t.Error("no messages recorded")
	}
	if rep.Failures != 0 || rep.Recoveries != 0 {
		t.Errorf("unexpected failures: %+v", rep)
	}
}

func TestRunDistributedMesosKafka(t *testing.T) {
	rep := runDiamond(t, 2, 3, Config{
		Executor: executor.KindMesos,
		Broker:   mq.KindLog,
		Cluster:  fastCluster(4),
	})
	if got := rep.Statuses[workflow.DiamondMergeName]; got != hoclflow.StatusCompleted {
		t.Errorf("merge = %v", got)
	}
	if rep.Broker != "kafka" || rep.Executor != "mesos" {
		t.Errorf("report: %+v", rep)
	}
}

// TestRunDistributedAdaptation runs the §V-B scenario through the full
// stack: the last mesh service errors, the body is swapped, the merge
// completes, and the report records the adaptation.
func TestRunDistributedAdaptation(t *testing.T) {
	spec := workflow.DefaultDiamondSpec(2, 2, false)
	def := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
	last, _ := def.TaskByID(workflow.LastMeshTask(spec))
	last.Service = "flaky"

	services := diamondServices(nil)
	services.RegisterFailing("flaky", 0.1)

	rep, err := Run(context.Background(), def, services, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(5),
	})
	if err != nil {
		t.Fatalf("run: %v (report %v)", err, rep)
	}
	if len(rep.Adaptations) != 1 || rep.Adaptations[0] != "bodyswap" {
		t.Errorf("adaptations = %v", rep.Adaptations)
	}
	if got := rep.Statuses[workflow.DiamondMergeName]; got != hoclflow.StatusCompleted {
		t.Errorf("merge = %v", got)
	}
	// Replacement agents were deployed alongside main agents.
	if rep.Agents != 2*2*2+2 {
		t.Errorf("agents = %d, want 10 (mesh + replacement mesh + split/merge)", rep.Agents)
	}
}

// TestRunCentralizedAdaptation runs the same scenario on the centralized
// interpreter.
func TestRunCentralizedAdaptation(t *testing.T) {
	spec := workflow.DefaultDiamondSpec(2, 2, false)
	def := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
	last, _ := def.TaskByID(workflow.LastMeshTask(spec))
	last.Service = "flaky"

	services := diamondServices(nil)
	services.RegisterFailing("flaky", 0.1)

	rep, err := Run(context.Background(), def, services, Config{
		Executor: executor.KindCentralized,
		Cluster:  fastCluster(4),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Adaptations) != 1 {
		t.Errorf("adaptations = %v", rep.Adaptations)
	}
}

// TestRunResilienceKafka injects crashes (p=0.5, T=0) under the Kafka
// broker: the workflow must still complete, with observed failures and
// recoveries (§V-D).
func TestRunResilienceKafka(t *testing.T) {
	rep := runDiamond(t, 2, 2, Config{
		Executor:     executor.KindMesos,
		Broker:       mq.KindLog,
		Cluster:      fastCluster(4),
		Chaos:        failure.ChaosConfig{AgentCrashP: 0.5, AgentCrashAfter: 0},
		RestartDelay: 0.5,
		Timeout:      60 * time.Second,
	})
	if got := rep.Statuses[workflow.DiamondMergeName]; got != hoclflow.StatusCompleted {
		t.Fatalf("merge = %v (report %v)", got, rep)
	}
	if rep.Failures == 0 {
		t.Error("no failures observed with p=0.5")
	}
	if rep.Recoveries != rep.Failures {
		t.Errorf("failures=%d recoveries=%d must match", rep.Failures, rep.Recoveries)
	}
}

// TestRunResilienceQueueStalls: with the volatile broker, a crash loses
// in-flight results and the workflow cannot finish — the §IV-B rationale
// for Kafka. All services fail once at the start (T=0 hits before the
// 0.1s service completes), so every in-flight input to the crashed agent
// is gone.
func TestRunResilienceQueueStalls(t *testing.T) {
	def := workflow.Sequence(2, "s", "in")
	services := agent.NewRegistry()
	services.RegisterNoop(0.2, "s")
	_, err := Run(context.Background(), def, services, Config{
		Executor:     executor.KindSSH,
		Broker:       mq.KindQueue,
		Cluster:      fastCluster(2),
		Chaos:        failure.ChaosConfig{AgentCrashP: 0.9999, AgentCrashAfter: 0.1}, // S2 virtually guaranteed to crash while S1's result is in flight
		RestartDelay: 0.1,
		Timeout:      2 * time.Second,
	})
	if err == nil {
		t.Skip("lucky run: no crash at the fatal moment")
	}
	if !strings.Contains(err.Error(), "did not complete") {
		t.Errorf("want stall, got: %v", err)
	}
}

func TestRunRejectsInvalidWorkflow(t *testing.T) {
	bad := &workflow.Definition{Tasks: []workflow.Task{{ID: "x", Service: "s"}}}
	if _, err := Run(context.Background(), bad, agent.NewRegistry(), Config{
		Executor: executor.KindCentralized, Cluster: fastCluster(1),
	}); err == nil {
		t.Error("invalid workflow accepted")
	}
	if _, err := Run(context.Background(), bad, agent.NewRegistry(), Config{
		Cluster: fastCluster(1),
	}); err == nil {
		t.Error("invalid workflow accepted (distributed)")
	}
}

func TestRunUnknownExecutor(t *testing.T) {
	def := workflow.Sequence(1, "s", "in")
	services := agent.NewRegistry()
	services.RegisterNoop(0, "s")
	if _, err := Run(context.Background(), def, services, Config{
		Executor: "slurm", Cluster: fastCluster(1),
	}); err == nil {
		t.Error("unknown executor accepted")
	}
}

func TestRunTimeoutStallsCleanly(t *testing.T) {
	// A workflow whose only service is missing stalls; the run must
	// return within the timeout with a helpful error.
	def := workflow.Sequence(2, "s", "in")
	services := agent.NewRegistry()
	services.RegisterNoop(0, "s")
	// Remove the service the second task needs by using a separate name.
	def.Tasks[1].Service = "missing"
	start := time.Now()
	_, err := Run(context.Background(), def, services, Config{
		Executor: executor.KindSSH,
		Cluster:  fastCluster(2),
		Timeout:  2 * time.Second,
	})
	if err == nil {
		t.Fatal("want error")
	}
	if time.Since(start) > 30*time.Second {
		t.Error("run did not respect timeout")
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{Workflow: "w", Executor: "ssh", Broker: "activemq", Agents: 3}
	s := rep.String()
	for _, frag := range []string{"w", "ssh", "activemq", "agents=3"} {
		if !strings.Contains(s, frag) {
			t.Errorf("report string %q missing %q", s, frag)
		}
	}
}

// TestKafkaSlowerThanQueue verifies the Fig. 14 broker effect end to end:
// the same workflow runs measurably slower on the log broker. This test
// measures model time, so it runs at the default 1 ms scale where the
// modelled latencies (2 vs 8 model seconds per message) sit above the
// host timer granularity.
func TestKafkaSlowerThanQueue(t *testing.T) {
	run := func(kind mq.Kind) float64 {
		rep := runDiamond(t, 2, 2, Config{
			Executor: executor.KindSSH,
			Broker:   kind,
			Cluster:  cluster.Config{Nodes: 4, CoresPerNode: 24, Scale: time.Millisecond},
		})
		return rep.ExecTime
	}
	q := run(mq.KindQueue)
	k := run(mq.KindLog)
	if k <= q {
		t.Errorf("kafka exec %.2f should exceed activemq exec %.2f", k, q)
	}
}
