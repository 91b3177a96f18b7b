package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
	"ginflow/internal/workflow"
)

// multiAdaptiveWorkflow builds a workflow with two independent faulty
// branches, each with its own adaptation — the paper's §III-C
// "Generalisation": "GinFlow can support several adaptations for the
// same workflow if they concern disjoint sets of tasks."
func multiAdaptiveWorkflow() *workflow.Definition {
	return &workflow.Definition{
		Name: "multi-adaptive",
		Tasks: []workflow.Task{
			{ID: "HEAD", Service: "ok", In: []string{"x"}, Dst: []string{"FA", "FB", "MID"}},
			{ID: "FA", Service: "failA", Dst: []string{"TAIL"}},
			{ID: "FB", Service: "failB", Dst: []string{"TAIL"}},
			{ID: "MID", Service: "ok", Dst: []string{"TAIL"}},
			{ID: "TAIL", Service: "ok"},
		},
		Adaptations: []workflow.Adaptation{
			{
				ID: "swapA", Faulty: []string{"FA"},
				Replacement: []workflow.ReplacementTask{
					{ID: "RA", Service: "altA", Src: []string{"HEAD"}, Dst: []string{"TAIL"}},
				},
			},
			{
				ID: "swapB", Faulty: []string{"FB"},
				Replacement: []workflow.ReplacementTask{
					{ID: "RB", Service: "altB", Src: []string{"HEAD"}, Dst: []string{"TAIL"}},
				},
			},
		},
	}
}

// TestMultipleDisjointAdaptationsBothFire: both faulty branches fail;
// both adaptations trigger independently and the workflow completes.
func TestMultipleDisjointAdaptationsBothFire(t *testing.T) {
	services := agent.NewRegistry()
	services.RegisterNoop(0.1, "ok", "altA", "altB")
	services.RegisterFailing("failA", 0.1)
	services.RegisterFailing("failB", 0.1)

	for _, exKind := range []executor.Kind{executor.KindCentralized, executor.KindSSH} {
		rep, err := Run(context.Background(), multiAdaptiveWorkflow(), services, Config{
			Executor: exKind,
			Broker:   mq.KindQueue,
			Cluster:  fastCluster(4),
		})
		if err != nil {
			t.Fatalf("%s: %v", exKind, err)
		}
		got := append([]string(nil), rep.Adaptations...)
		sort.Strings(got)
		if len(got) != 2 || got[0] != "swapA" || got[1] != "swapB" {
			t.Errorf("%s: adaptations = %v, want both", exKind, got)
		}
		if rep.Statuses["TAIL"] != hoclflow.StatusCompleted {
			t.Errorf("%s: TAIL = %v", exKind, rep.Statuses["TAIL"])
		}
		for _, r := range []string{"RA", "RB"} {
			if rep.Statuses[r] != hoclflow.StatusCompleted {
				t.Errorf("%s: replacement %s = %v", exKind, r, rep.Statuses[r])
			}
		}
	}
}

// TestOnlyFailingAdaptationFires: when just one branch fails, the other
// adaptation must stay dormant.
func TestOnlyFailingAdaptationFires(t *testing.T) {
	services := agent.NewRegistry()
	services.RegisterNoop(0.1, "ok", "failB", "altA", "altB") // failB healthy here
	services.RegisterFailing("failA", 0.1)

	rep, err := Run(context.Background(), multiAdaptiveWorkflow(), services, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adaptations) != 1 || rep.Adaptations[0] != "swapA" {
		t.Errorf("adaptations = %v, want [swapA]", rep.Adaptations)
	}
	if rep.Statuses["RB"] == hoclflow.StatusCompleted {
		t.Error("dormant replacement RB ran")
	}
	if rep.Statuses["TAIL"] != hoclflow.StatusCompleted {
		t.Errorf("TAIL = %v", rep.Statuses["TAIL"])
	}
}

// TestMultiTaskReplacementSubworkflow replaces one faulty task by a
// two-task replacement pipeline (paper Fig. 9(a): a sub-workflow, not
// just a task, goes in).
func TestMultiTaskReplacementSubworkflow(t *testing.T) {
	def := &workflow.Definition{
		Name: "pipeline-replacement",
		Tasks: []workflow.Task{
			{ID: "T1", Service: "ok", In: []string{"x"}, Dst: []string{"F"}},
			{ID: "F", Service: "flaky", Dst: []string{"T3"}},
			{ID: "T3", Service: "ok"},
		},
		Adaptations: []workflow.Adaptation{{
			ID: "pipe", Faulty: []string{"F"},
			Replacement: []workflow.ReplacementTask{
				{ID: "R1", Service: "alt", Src: []string{"T1"}, Dst: []string{"R2"}},
				// R2's edges are declared by its neighbours; the wiring
				// normaliser merges both directions.
				{ID: "R2", Service: "alt"},
				{ID: "R3", Service: "alt", Src: []string{"R2"}, Dst: []string{"T3"}},
			},
		}},
	}
	services := agent.NewRegistry()
	services.RegisterNoop(0.1, "ok", "alt")
	services.RegisterFailing("flaky", 0.1)

	for _, exKind := range []executor.Kind{executor.KindCentralized, executor.KindSSH} {
		rep, err := Run(context.Background(), def, services, Config{
			Executor: exKind,
			Broker:   mq.KindQueue,
			Cluster:  fastCluster(4),
		})
		if err != nil {
			t.Fatalf("%s: %v", exKind, err)
		}
		if rep.Statuses["T3"] != hoclflow.StatusCompleted {
			t.Errorf("%s: T3 = %v", exKind, rep.Statuses["T3"])
		}
		for _, r := range []string{"R1", "R2", "R3"} {
			if rep.Statuses[r] != hoclflow.StatusCompleted {
				t.Errorf("%s: %s = %v", exKind, r, rep.Statuses[r])
			}
		}
	}
}

// TestRandomDAGsDistributedWithCrashes is the heavyweight property: a
// handful of random DAGs run on the decentralised engine under crash
// injection (Kafka broker) and still complete, with recoveries matching
// failures.
func TestRandomDAGsDistributedWithCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(6)
		def := randomForwardDAG(r, n)
		services := agent.NewRegistry()
		services.RegisterNoop(0.3, "svc")

		cfg := Config{
			Executor:     executor.KindSSH,
			Broker:       mq.KindLog,
			Cluster:      fastCluster(4),
			Chaos:        failure.ChaosConfig{AgentCrashP: 0.3, AgentCrashAfter: 0.05},
			RestartDelay: 0.2,
			Timeout:      60 * time.Second,
		}
		cfg.Cluster.Seed = seed
		rep, err := Run(context.Background(), def, services, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v (report %v)", seed, err, rep)
		}
		for _, task := range def.Tasks {
			if rep.Statuses[task.ID] != hoclflow.StatusCompleted {
				t.Errorf("seed %d: %s = %v", seed, task.ID, rep.Statuses[task.ID])
			}
		}
		if rep.Failures != rep.Recoveries {
			t.Errorf("seed %d: failures %d != recoveries %d", seed, rep.Failures, rep.Recoveries)
		}
	}
}

// randomForwardDAG mirrors the workflow package's random generator (kept
// local to avoid exporting test scaffolding).
func randomForwardDAG(r *rand.Rand, n int) *workflow.Definition {
	def := &workflow.Definition{Name: "rand"}
	for i := 1; i <= n; i++ {
		t := workflow.Task{ID: taskName(i), Service: "svc"}
		if i == 1 {
			t.In = []string{"input"}
		}
		def.Tasks = append(def.Tasks, t)
	}
	for i := 0; i < n-1; i++ {
		picked := map[int]bool{}
		for e := 0; e < 1+r.Intn(2); e++ {
			j := i + 1 + r.Intn(n-i-1)
			if !picked[j] {
				picked[j] = true
				def.Tasks[i].Dst = append(def.Tasks[i].Dst, taskName(j+1))
			}
		}
	}
	return def
}

func taskName(i int) string { return "T" + string(rune('A'+i-1)) }
