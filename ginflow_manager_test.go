package ginflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ginflow/internal/hocl"
)

// TestManagerConcurrentWorkflows is the acceptance bar for the
// long-lived Manager API: at least 8 concurrent workflow sessions —
// mixed diamonds, sequences and an adaptive run — multiplex over one
// shared cluster and broker, each producing a correct, independent
// report with no cross-run molecule leakage. Run under -race in CI.
func TestManagerConcurrentWorkflows(t *testing.T) {
	mgr, err := New(
		WithExecutor(ExecutorSSH),
		WithBroker(BrokerActiveMQ),
		WithCluster(ClusterConfig{Nodes: 10, Scale: 50 * time.Microsecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	type job struct {
		name    string
		def     *Workflow
		svc     *ServiceRegistry
		exit    string
		tasks   int
		adapted bool
	}
	var jobs []job
	for i := 0; i < 4; i++ {
		h, v := 2+i%3, 2+(i+1)%2
		jobs = append(jobs, job{
			name:  fmt.Sprintf("diamond-%dx%d-%d", h, v, i),
			def:   Diamond(DefaultDiamondSpec(h, v, i%2 == 0)),
			svc:   noopServices(0.1, "split", "work", "merge"),
			exit:  "MERGE",
			tasks: h*v + 2,
		})
	}
	for i := 0; i < 3; i++ {
		n := 3 + i
		jobs = append(jobs, job{
			name:  fmt.Sprintf("sequence-%d", n),
			def:   Sequence(n, "s", "in"),
			svc:   noopServices(0.1, "s"),
			exit:  fmt.Sprintf("S%d", n),
			tasks: n,
		})
	}
	{
		spec := DefaultDiamondSpec(2, 2, false)
		def := WithBodyReplacement(Diamond(spec), spec, false, "workalt")
		def.Tasks[len(def.Tasks)-2].Service = "flaky" // last mesh task
		svc := noopServices(0.1, "split", "work", "merge", "workalt")
		svc.RegisterFailing("flaky", 0.1)
		jobs = append(jobs, job{
			name: "adaptive", def: def, svc: svc,
			exit: "MERGE", tasks: 2*2 + 2, adapted: true,
		})
	}
	if len(jobs) < 8 {
		t.Fatalf("want >= 8 concurrent jobs, built %d", len(jobs))
	}

	handles := make([]*Handle, len(jobs))
	for i, j := range jobs {
		h, err := mgr.Submit(context.Background(), j.def, j.svc)
		if err != nil {
			t.Fatalf("%s: submit: %v", j.name, err)
		}
		handles[i] = h
	}

	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(j job, h *Handle) {
			defer wg.Done()
			rep, err := h.Wait(context.Background())
			if err != nil {
				t.Errorf("%s: wait: %v", j.name, err)
				return
			}
			if rep.Tasks != j.tasks {
				t.Errorf("%s: tasks = %d, want %d", j.name, rep.Tasks, j.tasks)
			}
			if got := rep.Statuses[j.exit]; got != StatusCompleted {
				t.Errorf("%s: exit %s = %v", j.name, j.exit, got)
			}
			if j.adapted != (len(rep.Adaptations) > 0) {
				t.Errorf("%s: adaptations = %v", j.name, rep.Adaptations)
			}
			// No cross-run leakage: a report carries exactly its own
			// workflow's task statuses, all completed (an alien molecule
			// would surface as an unexpected key).
			for id := range rep.Statuses {
				if _, ok := j.def.TaskByID(id); !ok {
					found := false
					for _, a := range j.def.Adaptations {
						for _, r := range a.Replacement {
							if r.ID == id {
								found = true
							}
						}
					}
					if !found {
						t.Errorf("%s: foreign task %q in report", j.name, id)
					}
				}
			}
		}(jobs[i], handles[i])
	}
	wg.Wait()

	if got := mgr.Active(); got != 0 {
		t.Errorf("active sessions after completion = %d", got)
	}
}

// TestManagerHandleEventsAndCancel exercises the Handle surface: live
// event streaming on one session while a second is cancelled mid-run
// with a caller-supplied cause.
func TestManagerHandleEventsAndCancel(t *testing.T) {
	mgr, err := New(WithCluster(ClusterConfig{Nodes: 6, Scale: 50 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	// Session 1: stream events. The entry service waits until the
	// stream is subscribed: events recorded before Events() are not
	// replayed.
	def := Diamond(DefaultDiamondSpec(2, 2, false))
	services := noopServices(0.1, "split", "work", "merge")
	split, _ := services.Lookup("split")
	subscribed := make(chan struct{})
	services.RegisterFunc("split", 0.1, func(params []hocl.Atom) (hocl.Atom, error) {
		<-subscribed
		return split.Invoke(params)
	})
	h1, err := mgr.Submit(context.Background(), def, services)
	if err != nil {
		t.Fatal(err)
	}
	events := h1.Events()
	close(subscribed)
	// Session 2: a crawler to cancel.
	h2, err := mgr.Submit(context.Background(), Sequence(3, "slow", "in"), noopServices(1e5, "slow"))
	if err != nil {
		t.Fatal(err)
	}

	completed := 0
	for e := range events {
		if e.Kind == EventTaskCompleted {
			completed++
		}
	}
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if want := 2*2 + 2; completed != want {
		t.Errorf("task-completed events = %d, want %d", completed, want)
	}

	cause := errors.New("user pressed stop")
	h2.Cancel(cause)
	if _, err := h2.Wait(context.Background()); !errors.Is(err, ErrCancelled) || !errors.Is(err, cause) {
		t.Errorf("cancelled wait err = %v", err)
	}
}

// TestManagerSubmitValidation pins the fail-fast sentinel errors.
func TestManagerSubmitValidation(t *testing.T) {
	mgr, err := New(WithCluster(ClusterConfig{Nodes: 2, Scale: 50 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	def := Sequence(2, "nowhere", "in")
	if _, err := mgr.Submit(context.Background(), def, NewServiceRegistry()); !errors.Is(err, ErrUnknownService) {
		t.Errorf("err = %v, want ErrUnknownService", err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(context.Background(), def, NewServiceRegistry()); !errors.Is(err, ErrManagerClosed) {
		t.Errorf("err = %v, want ErrManagerClosed", err)
	}
}

func noopServices(duration float64, names ...string) *ServiceRegistry {
	reg := NewServiceRegistry()
	reg.RegisterNoop(duration, names...)
	return reg
}
