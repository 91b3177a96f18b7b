package core

import (
	"context"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/mq"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// timelineOf indexes a report's events by kind.
func timelineOf(rep *Report) map[trace.Kind][]trace.Event {
	byKind := map[trace.Kind][]trace.Event{}
	for _, e := range rep.Events {
		byKind[e.Kind] = append(byKind[e.Kind], e)
	}
	return byKind
}

// TestTraceTimelineOfPlainRun asserts the enactment timeline of the
// paper's diamond: 4 starts, 4 invocations, 4 completions, 4 transfers
// (T1 sends twice, T2 and T3 once each).
func TestTraceTimelineOfPlainRun(t *testing.T) {
	def := &workflow.Definition{
		Name: "traced",
		Tasks: []workflow.Task{
			{ID: "T1", Service: "s", In: []string{"x"}, Dst: []string{"T2", "T3"}},
			{ID: "T2", Service: "s", Dst: []string{"T4"}},
			{ID: "T3", Service: "s", Dst: []string{"T4"}},
			{ID: "T4", Service: "s"},
		},
	}
	services := agent.NewRegistry()
	services.RegisterNoop(0.1, "s")
	rep, err := Run(context.Background(), def, services, Config{
		Executor:     executor.KindSSH,
		Broker:       mq.KindQueue,
		Cluster:      fastCluster(4),
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	byKind := timelineOf(rep)
	if got := len(byKind[trace.AgentStarted]); got != 4 {
		t.Errorf("starts = %d", got)
	}
	if got := len(byKind[trace.ServiceInvoked]); got != 4 {
		t.Errorf("invocations = %d", got)
	}
	if got := len(byKind[trace.ServiceCompleted]); got != 4 {
		t.Errorf("completions = %d", got)
	}
	if got := len(byKind[trace.ResultSent]); got != 4 {
		t.Errorf("transfers = %d", got)
	}
	if got := len(byKind[trace.TaskCompleted]); got != 4 {
		t.Errorf("task completions = %d", got)
	}
	if len(byKind[trace.AgentCrashed]) != 0 || len(byKind[trace.AdaptTriggered]) != 0 {
		t.Errorf("unexpected failure events: %v", rep.Events)
	}
	// Causality: T1's completion precedes T4's invocation.
	var t1Done, t4Start float64 = -1, -1
	for _, e := range rep.Events {
		if e.Kind == trace.ServiceCompleted && e.Task == "T1" {
			t1Done = e.At
		}
		if e.Kind == trace.ServiceInvoked && e.Task == "T4" {
			t4Start = e.At
		}
	}
	if t1Done < 0 || t4Start < 0 || t4Start <= t1Done {
		t.Errorf("causality violated: T1 done %.2f, T4 start %.2f", t1Done, t4Start)
	}
}

// TestTraceTimelineOfAdaptiveRun asserts the adaptation events: the
// faulty service errors, the trigger fires, the replacement runs.
func TestTraceTimelineOfAdaptiveRun(t *testing.T) {
	def := &workflow.Definition{
		Name: "traced-adaptive",
		Tasks: []workflow.Task{
			{ID: "T1", Service: "ok", In: []string{"x"}, Dst: []string{"F"}},
			{ID: "F", Service: "flaky", Dst: []string{"T3"}},
			{ID: "T3", Service: "ok"},
		},
		Adaptations: []workflow.Adaptation{{
			ID: "a", Faulty: []string{"F"},
			Replacement: []workflow.ReplacementTask{
				{ID: "R", Service: "alt", Src: []string{"T1"}, Dst: []string{"T3"}},
			},
		}},
	}
	services := agent.NewRegistry()
	services.RegisterNoop(0.1, "ok", "alt")
	services.RegisterFailing("flaky", 0.1)

	rep, err := Run(context.Background(), def, services, Config{
		Executor:     executor.KindSSH,
		Broker:       mq.KindQueue,
		Cluster:      fastCluster(4),
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	byKind := timelineOf(rep)
	if got := byKind[trace.ServiceErrored]; len(got) != 1 || got[0].Task != "F" {
		t.Errorf("errored = %v", got)
	}
	trig := byKind[trace.AdaptTriggered]
	if len(trig) != 1 || trig[0].Task != "F" || trig[0].Info != "a" {
		t.Errorf("triggers = %v", trig)
	}
	// The replacement's invocation happens after the trigger.
	var rStart float64 = -1
	for _, e := range rep.Events {
		if e.Kind == trace.ServiceInvoked && e.Task == "R" {
			rStart = e.At
		}
	}
	if rStart < trig[0].At {
		t.Errorf("replacement started at %.2f before trigger %.2f", rStart, trig[0].At)
	}
}

// TestTraceTimelineOfRecovery asserts crash/recovery events and that the
// recovered incarnation completes the service span.
func TestTraceTimelineOfRecovery(t *testing.T) {
	def := workflow.Sequence(2, "s", "in")
	services := agent.NewRegistry()
	services.RegisterNoop(0.2, "s")
	rep, err := Run(context.Background(), def, services, Config{
		Executor:     executor.KindMesos,
		Broker:       mq.KindLog,
		Cluster:      fastCluster(3),
		Chaos:        failure.ChaosConfig{AgentCrashP: 0.5, AgentCrashAfter: 0},
		RestartDelay: 0.2,
		CollectTrace: true,
		Timeout:      60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	byKind := timelineOf(rep)
	if len(byKind[trace.AgentCrashed]) != rep.Failures {
		t.Errorf("crash events %d != failures %d", len(byKind[trace.AgentCrashed]), rep.Failures)
	}
	if len(byKind[trace.AgentRecovered]) != rep.Recoveries {
		t.Errorf("recovery events %d != recoveries %d", len(byKind[trace.AgentRecovered]), rep.Recoveries)
	}
	// Every task eventually produced a completed service span: an
	// invocation and a completion of the same incarnation.
	type incarnation struct {
		task string
		n    int
	}
	invoked := map[incarnation]bool{}
	completed := map[string]bool{}
	for _, e := range rep.Events {
		k := incarnation{e.Task, e.Incarnation}
		switch e.Kind {
		case trace.ServiceInvoked:
			invoked[k] = true
		case trace.ServiceCompleted:
			if invoked[k] {
				completed[e.Task] = true
			}
		}
	}
	for _, task := range def.Tasks {
		if !completed[task.ID] {
			t.Errorf("task %s has no completed span", task.ID)
		}
	}
}

// TestTraceDisabledByDefault keeps the hot path clean.
func TestTraceDisabledByDefault(t *testing.T) {
	def := workflow.Sequence(2, "s", "in")
	services := agent.NewRegistry()
	services.RegisterNoop(0.05, "s")
	rep, err := Run(context.Background(), def, services, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 0 {
		t.Errorf("events recorded without CollectTrace: %d", len(rep.Events))
	}
}
