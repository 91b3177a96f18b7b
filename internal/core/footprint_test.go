//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/executor"
	"ginflow/internal/hocl"
	"ginflow/internal/mq"
	"ginflow/internal/workflow"
)

// maxLiveBytesPerAgent is the ceiling on the live heap one idle agent
// costs at the 48×48 merge point (ROADMAP V). It read 7,535 B while
// every engine kept its own matcher and expression-machine scratch and
// 4,620 B once a reduction borrowed it; lower it when an agent durably
// gets cheaper.
const maxLiveBytesPerAgent = 5200

// TestAgentFootprint measures what an idle agent costs. A 48×48 simple
// diamond runs on the virtual clock until MERGE invokes its service,
// which blocks: every mesh agent has then completed and is parked on its
// inbox. The live heap the session added, after a collection, divided
// by the agent count, must stay under maxLiveBytesPerAgent. The plan,
// whose templates every session of the definition shares, is compiled
// before the baseline. The goroutine stack per agent is logged, not
// gated (ROADMAP F.2). The runtime's memory statistics are
// process-wide, so the test does not run in parallel with others, and
// the race detector's shadow memory would distort them.
func TestAgentFootprint(t *testing.T) {
	const n = 48
	def := workflow.Diamond(workflow.DefaultDiamondSpec(n, n, false))
	agents := len(def.Tasks)

	reached, release := make(chan struct{}), make(chan struct{})
	services := agent.NewRegistry()
	services.RegisterNoop(0.1, "split", "work")
	services.RegisterFunc("merge", 0.1, func([]hocl.Atom) (hocl.Atom, error) {
		close(reached)
		<-release
		return hocl.Str("out-merge"), nil
	})
	m, err := NewManager(Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  virtualCluster(100, 1),
		Timeout:  5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// The compiled plan, templates included, is the definition's and is
	// shared by every session of it: compile it before the baseline.
	plan, err := m.plan(def)
	if err == nil {
		_, err = plan.Specs()
	}
	if err != nil {
		t.Fatal(err)
	}

	before := liveMemStats()
	s, err := m.Submit(context.Background(), def, services)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Wait(context.Background())
		done <- err
	}()
	select {
	case <-reached:
	case err := <-done:
		t.Fatalf("session ended before MERGE invoked its service: %v", err)
	}
	at := liveMemStats()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("session: %v", err)
	}

	heap := float64(at.HeapAlloc-before.HeapAlloc) / float64(agents)
	stack := float64(at.StackInuse-before.StackInuse) / float64(agents)
	t.Logf("%dx%d merge point, %d agents: %.0f B live heap per agent (ceiling %d), %.0f B goroutine stack per agent",
		n, n, agents, heap, maxLiveBytesPerAgent, stack)
	if heap > maxLiveBytesPerAgent {
		t.Errorf("an idle agent costs %.0f B of live heap, ceiling %d B", heap, maxLiveBytesPerAgent)
	}
}

// liveMemStats reads the runtime's memory statistics after a full
// collection, so HeapAlloc counts live objects only.
func liveMemStats() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
