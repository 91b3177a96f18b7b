package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ginflow"
)

func TestBuildWorkloadDiamond(t *testing.T) {
	def, services, err := buildWorkload("", "3x2", false, false, "0.5", "")
	if err != nil {
		t.Fatal(err)
	}
	if def.TaskCount() != 3*2+2 {
		t.Errorf("tasks = %d", def.TaskCount())
	}
	for _, svc := range []string{"split", "work", "merge"} {
		if _, ok := services.Lookup(svc); !ok {
			t.Errorf("service %q not registered", svc)
		}
	}
}

func TestBuildWorkloadDiamondBad(t *testing.T) {
	for _, bad := range []string{"x", "0x3", "3x0", "3by3"} {
		if _, _, err := buildWorkload("", bad, false, false, "1", ""); err == nil {
			t.Errorf("diamond %q accepted", bad)
		}
	}
}

func TestBuildWorkloadMontage(t *testing.T) {
	def, services, err := buildWorkload("", "", false, true, "1", "")
	if err != nil {
		t.Fatal(err)
	}
	if def.TaskCount() != 118 {
		t.Errorf("tasks = %d", def.TaskCount())
	}
	for _, task := range def.Tasks {
		if _, ok := services.Lookup(task.Service); !ok {
			t.Errorf("task %s: service %q not registered", task.ID, task.Service)
		}
	}
}

func TestBuildWorkloadJSONFileWithFailingService(t *testing.T) {
	src := `{
	  "tasks": [
	    {"id": "T1", "service": "s1", "in": ["x"], "dst": ["T2"]},
	    {"id": "T2", "service": "s2"}
	  ]
	}`
	dir := t.TempDir()
	path := filepath.Join(dir, "wf.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	def, services, err := buildWorkload(path, "", false, false, "0.5", "s2, ")
	if err != nil {
		t.Fatal(err)
	}
	if def.TaskCount() != 2 {
		t.Errorf("tasks = %d", def.TaskCount())
	}
	s2, ok := services.Lookup("s2")
	if !ok {
		t.Fatal("s2 missing")
	}
	if _, err := s2.Invoke(nil); err == nil {
		t.Error("s2 should be registered as failing")
	}
	s1, _ := services.Lookup("s1")
	if _, err := s1.Invoke(nil); err != nil {
		t.Error("s1 should be healthy")
	}
}

func TestBuildWorkloadErrors(t *testing.T) {
	if _, _, err := buildWorkload("", "", false, false, "1", ""); err == nil {
		t.Error("no workload selected but accepted")
	}
	if _, _, err := buildWorkload("/no/such/file.json", "", false, false, "1", ""); err == nil {
		t.Error("missing file accepted")
	}
	if _, _, err := buildWorkload("", "2x2", false, false, "abc", ""); err == nil {
		t.Error("bad duration accepted")
	}
}

// TestRunParallelSessions drives the -n mode end to end: several
// concurrent submissions of one workload through one shared Manager.
func TestRunParallelSessions(t *testing.T) {
	def, services, err := buildWorkload("", "2x2", false, false, "0.1", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ginflow.Config{
		Executor: ginflow.ExecutorSSH,
		Broker:   ginflow.BrokerActiveMQ,
		Cluster:  ginflow.ClusterConfig{Nodes: 6, Scale: 50 * time.Microsecond},
		Timeout:  30 * time.Second,
	}
	var buf bytes.Buffer
	if err := runParallel(&buf, def, services, cfg, 3, false, ""); err != nil {
		t.Fatalf("runParallel: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, frag := range []string{"submitted 3 concurrent sessions", "session 1:", "session 3:", "aggregate:   3/3 sessions completed"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestPrintReport(t *testing.T) {
	rep := &ginflow.Report{
		Workflow: "wf", Executor: "ssh", Broker: "activemq",
		Tasks: 4, Agents: 5, Nodes: 3,
		DeployTime: 3.5, ExecTime: 12.25, Messages: 17,
		Failures: 2, Recoveries: 2,
		Adaptations: []string{"a1"},
		Results:     map[string][]string{"T4": {`"out"`}},
		Statuses:    map[string]ginflow.TaskStatus{"T4": ginflow.StatusCompleted},
	}
	var buf bytes.Buffer
	printReport(&buf, rep, true)
	out := buf.String()
	for _, frag := range []string{
		"workflow:     wf", "ssh", "activemq",
		"deploy time:  3.5", "exec time:    12.2",
		"failures:     2", "adaptations:  a1",
		`result[T4]: "out"`, "statuses:", "completed",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("report output missing %q:\n%s", frag, out)
		}
	}
	// Non-verbose output omits statuses.
	buf.Reset()
	printReport(&buf, rep, false)
	if strings.Contains(buf.String(), "statuses:") {
		t.Error("non-verbose output should omit statuses")
	}
}
