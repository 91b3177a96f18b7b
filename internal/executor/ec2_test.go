package executor

import (
	"context"
	"testing"
	"time"

	"ginflow/internal/cluster"
)

func TestEC2PacksDensely(t *testing.T) {
	c := testCluster(10, 2) // 4 slots per instance
	placements, deploy, err := (&EC2{}).Deploy(context.Background(), testSpecs(t, 9), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 9 {
		t.Fatalf("placed %d", len(placements))
	}
	if deploy <= 0 {
		t.Error("deploy time must be positive")
	}
	// First-fit packing: 9 agents over 4-slot instances use exactly 3
	// instances (4 + 4 + 1), leaving the rest untouched.
	used := 0
	for _, n := range c.Nodes() {
		if n.InUse() > 0 {
			used++
		}
	}
	if used != 3 {
		t.Errorf("booted %d instances, want 3 (dense packing)", used)
	}
	if c.Nodes()[0].InUse() != 4 || c.Nodes()[1].InUse() != 4 || c.Nodes()[2].InUse() != 1 {
		t.Errorf("packing: %d/%d/%d", c.Nodes()[0].InUse(), c.Nodes()[1].InUse(), c.Nodes()[2].InUse())
	}
}

// TestEC2DeployIndependentOfClusterSize is the elastic-cloud signature:
// unlike SSH (grows with nodes) and Mesos (shrinks with nodes), cloud
// provisioning time depends only on how many instances the workload
// needs.
func TestEC2DeployIndependentOfClusterSize(t *testing.T) {
	times := map[int]float64{}
	for _, nodes := range []int{5, 10, 25} {
		c := testCluster(nodes, 24)
		_, deploy, err := (&EC2{}).Deploy(context.Background(), testSpecs(t, 40), c)
		if err != nil {
			t.Fatal(err)
		}
		times[nodes] = deploy
	}
	if times[5] != times[10] || times[10] != times[25] {
		t.Errorf("cloud deploy must not depend on platform size: %v", times)
	}
}

// TestEC2DeployScalesWithInstanceWaves: boot waves of MaxParallelBoots
// instances each.
func TestEC2DeployScalesWithInstanceWaves(t *testing.T) {
	e := &EC2{RequestLatency: 2, BootLatency: 20, MaxParallelBoots: 2}
	deployFor := func(agents int) float64 {
		c := testCluster(30, 1) // 2 slots per instance
		_, deploy, err := e.Deploy(context.Background(), testSpecs(t, agents), c)
		if err != nil {
			t.Fatal(err)
		}
		return deploy
	}
	// 4 agents -> 2 instances -> 1 wave; 8 agents -> 4 instances -> 2 waves.
	if got := deployFor(4); got != 2+20 {
		t.Errorf("1 wave = %v, want 22", got)
	}
	if got := deployFor(8); got != 2+2*20 {
		t.Errorf("2 waves = %v, want 42", got)
	}
}

func TestEC2QuotaExhausted(t *testing.T) {
	c := testCluster(1, 1) // 2 slots total
	_, _, err := (&EC2{}).Deploy(context.Background(), testSpecs(t, 3), c)
	if err == nil {
		t.Fatal("over-quota deployment succeeded")
	}
	if got := c.Nodes()[0].InUse(); got != 0 {
		t.Errorf("leaked %d slots", got)
	}
}

func TestEC2EndToEndRun(t *testing.T) {
	// The EC2 executor drives a full decentralised run through the
	// public engine path (checked from the executor package via New).
	e, err := New(KindEC2)
	if err != nil || e.Name() != "ec2" {
		t.Fatalf("New(ec2): %v, %v", e, err)
	}
	c := cluster.New(cluster.Config{Nodes: 4, CoresPerNode: 4, Scale: 20 * time.Microsecond})
	placements, _, err := e.Deploy(context.Background(), testSpecs(t, 5), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 5 {
		t.Errorf("placements = %d", len(placements))
	}
}
