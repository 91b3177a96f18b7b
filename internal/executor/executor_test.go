package executor

import (
	"context"
	"testing"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/workflow"
)

func testSpecs(t *testing.T, n int) []workflow.AgentSpec {
	t.Helper()
	d := workflow.Sequence(n, "s", "in")
	specs, err := d.TranslateAgents()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func testCluster(nodes, cores int) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes: nodes, CoresPerNode: cores, Scale: 20 * time.Microsecond,
	})
}

func TestNewKinds(t *testing.T) {
	if e, err := New(KindSSH); err != nil || e.Name() != "ssh" {
		t.Errorf("ssh: %v, %v", e, err)
	}
	if e, err := New(KindMesos); err != nil || e.Name() != "mesos" {
		t.Errorf("mesos: %v, %v", e, err)
	}
	if e, err := New(KindCentralized); err != nil || e != nil {
		t.Errorf("centralized must be nil executor: %v, %v", e, err)
	}
	if _, err := New("slurm"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSSHRoundRobinPlacement(t *testing.T) {
	c := testCluster(3, 24)
	specs := testSpecs(t, 9)
	placements, deploy, err := (&SSH{}).Deploy(context.Background(), specs, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 9 {
		t.Fatalf("placed %d", len(placements))
	}
	if deploy <= 0 {
		t.Error("deployment time must be positive")
	}
	// Round-robin: 3 agents per node.
	perNode := map[int]int{}
	for _, p := range placements {
		perNode[p.Node.ID]++
	}
	for id, n := range perNode {
		if n != 3 {
			t.Errorf("node %d hosts %d agents, want 3", id, n)
		}
	}
}

func TestSSHClusterFull(t *testing.T) {
	c := testCluster(1, 1) // 2 slots
	specs := testSpecs(t, 3)
	_, _, err := (&SSH{}).Deploy(context.Background(), specs, c)
	if err == nil {
		t.Fatal("overfull deployment succeeded")
	}
	// Failed deployment must release what it allocated.
	if got := c.Node(0).InUse(); got != 0 {
		t.Errorf("leaked %d slots", got)
	}
}

// TestSSHDeployTimeGrowsWithNodes encodes the paper's §V-C observation:
// "the deployment time slightly increases with the number of nodes".
func TestSSHDeployTimeGrowsWithNodes(t *testing.T) {
	times := map[int]float64{}
	for _, nodes := range []int{5, 10, 15} {
		c := testCluster(nodes, 24)
		_, deploy, err := (&SSH{}).Deploy(context.Background(), testSpecs(t, 102), c)
		if err != nil {
			t.Fatal(err)
		}
		times[nodes] = deploy
	}
	if !(times[5] < times[10] && times[10] < times[15]) {
		t.Errorf("SSH deploy must slightly increase with nodes: %v", times)
	}
	// "Slightly": the 5->15 growth stays under 2x.
	if times[15] > 2*times[5] {
		t.Errorf("SSH deploy growth too steep: %v", times)
	}
}

// TestMesosDeployTimeShrinksWithNodes encodes Fig. 14's linear decrease.
// Each deploy runs as a participant of a virtual clock, so its time is
// model time and host scheduling cannot reorder the three sizes.
func TestMesosDeployTimeShrinksWithNodes(t *testing.T) {
	times := map[int]float64{}
	specs := testSpecs(t, 102)
	for _, nodes := range []int{5, 10, 15} {
		c := cluster.New(cluster.Config{Nodes: nodes, CoresPerNode: 24, Virtual: true})
		var placements []Placement
		var err error
		done := make(chan struct{})
		c.Clock().Go(func() {
			defer close(done)
			placements, times[nodes], err = (&Mesos{}).Deploy(context.Background(), specs, c)
		})
		<-done
		if err != nil {
			t.Fatal(err)
		}
		releaseAll(placements)
	}
	if !(times[5] > times[10] && times[10] > times[15]) {
		t.Errorf("Mesos deploy must decrease with nodes: %v", times)
	}
}

func TestMesosPlacementsComplete(t *testing.T) {
	c := testCluster(4, 24)
	specs := testSpecs(t, 10)
	placements, _, err := (&Mesos{}).Deploy(context.Background(), specs, c)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range placements {
		if p.Node == nil {
			t.Errorf("agent %s placed on nil node", p.Spec.Task.Name)
		}
		seen[p.Spec.Task.Name] = true
	}
	if len(seen) != 10 {
		t.Errorf("placed %d distinct agents", len(seen))
	}
}

func TestSSHDefaults(t *testing.T) {
	d := (&SSH{}).withDefaults()
	if d.Base <= 0 || d.PerNodeSetup <= 0 || d.AgentStart <= 0 || d.ParallelConns <= 0 {
		t.Errorf("defaults not applied: %+v", d)
	}
	custom := (&SSH{Base: 9}).withDefaults()
	if custom.Base != 9 {
		t.Error("explicit value overridden")
	}
}
