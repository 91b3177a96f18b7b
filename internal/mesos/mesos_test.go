package mesos

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ginflow/internal/cluster"
)

func testCluster(nodes, cores int) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes: nodes, CoresPerNode: cores,
		Scale: 10 * time.Microsecond,
	})
}

func taskIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("T%d", i)
	}
	return ids
}

func TestOnePerNodePlacesEverything(t *testing.T) {
	c := testCluster(5, 4)
	m := NewMaster(c, Config{})
	f := NewOnePerNodeFramework(taskIDs(17))
	launches, err := m.RunFramework(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if len(launches) != 17 {
		t.Fatalf("launched %d, want 17", len(launches))
	}
	if !f.Done() {
		t.Error("framework not done")
	}
	// One SA per machine per round: 17 tasks over 5 nodes need 4 rounds.
	if m.rounds != 4 {
		t.Errorf("rounds = %d, want 4", m.rounds)
	}
	// Slots were allocated.
	used := 0
	for _, n := range c.Nodes() {
		used += n.InUse()
	}
	if used != 17 {
		t.Errorf("allocated slots = %d", used)
	}
}

// TestRoundsDecreaseWithNodes is the mechanism behind Fig. 14's linearly
// decreasing Mesos deployment time.
func TestRoundsDecreaseWithNodes(t *testing.T) {
	rounds := map[int]int{}
	for _, nodes := range []int{5, 10, 15} {
		m := NewMaster(testCluster(nodes, 24), Config{})
		f := NewOnePerNodeFramework(taskIDs(102)) // 10x10 diamond + split/merge
		if _, err := m.RunFramework(context.Background(), f); err != nil {
			t.Fatal(err)
		}
		rounds[nodes] = m.rounds
	}
	if !(rounds[5] > rounds[10] && rounds[10] > rounds[15]) {
		t.Errorf("rounds must decrease with node count: %v", rounds)
	}
	if rounds[5] != 21 || rounds[10] != 11 || rounds[15] != 7 {
		t.Errorf("rounds = %v, want ceil(102/nodes)", rounds)
	}
}

func TestOfferSkipsFullNodes(t *testing.T) {
	c := testCluster(2, 1) // 2 slots per node
	// Fill node 0 completely.
	c.Nodes()[0].Allocate()
	c.Nodes()[0].Allocate()
	m := NewMaster(c, Config{})
	f := NewOnePerNodeFramework(taskIDs(2))
	launches, err := m.RunFramework(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range launches {
		if l.Node.ID == 0 {
			t.Errorf("launched on full node: %+v", l)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	c := testCluster(1, 1)
	// Saturate the only node so no launch can ever occur.
	c.Nodes()[0].Allocate()
	c.Nodes()[0].Allocate()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	m := NewMaster(c, Config{})
	_, err := m.RunFramework(ctx, NewOnePerNodeFramework(taskIDs(1)))
	if err == nil {
		t.Fatal("want cancellation error")
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	c := testCluster(1, 1)
	c.Nodes()[0].Allocate()
	c.Nodes()[0].Allocate()
	m := NewMaster(c, Config{MaxRounds: 3})
	_, err := m.RunFramework(context.Background(), NewOnePerNodeFramework(taskIDs(1)))
	if err == nil {
		t.Fatal("want round-limit error")
	}
}

func TestDeploymentTimeScalesWithRounds(t *testing.T) {
	// At 1 ms per model second the loop's real compute overhead stays
	// small relative to the modelled sleeps.
	c := cluster.New(cluster.Config{Nodes: 2, CoresPerNode: 24, Scale: time.Millisecond})
	m := NewMaster(c, Config{OfferInterval: 1, RegistrationDelay: 1})
	start := c.Clock().Now()
	if _, err := m.RunFramework(context.Background(), NewOnePerNodeFramework(taskIDs(10))); err != nil {
		t.Fatal(err)
	}
	elapsed := c.Clock().Now() - start
	// 1 (registration) + 5 rounds × 1 = 6 model seconds, plus bounded
	// real-compute overhead.
	if elapsed < 5.5 || elapsed > 30 {
		t.Errorf("deployment took %.2f model seconds, want ≈6", elapsed)
	}
}
