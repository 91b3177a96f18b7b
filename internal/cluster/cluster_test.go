package cluster

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockScaling(t *testing.T) {
	c := NewClock(time.Millisecond)
	start := time.Now()
	c.Sleep(20) // 20 model seconds = 20 ms real
	real := time.Since(start)
	if real < 15*time.Millisecond || real > 500*time.Millisecond {
		t.Errorf("scaled sleep took %v, want ~20ms", real)
	}
	if now := c.Now(); now < 15 {
		t.Errorf("model Now() = %v, want >= ~20", now)
	}
}

func TestClockNonPositiveSleep(t *testing.T) {
	c := NewClock(time.Millisecond)
	start := time.Now()
	c.Sleep(0)
	c.Sleep(-5)
	if time.Since(start) > 50*time.Millisecond {
		t.Error("non-positive sleeps must return immediately")
	}
}

func TestClockDefaultScale(t *testing.T) {
	if got := NewClock(0).Scale(); got != DefaultScale {
		t.Errorf("default scale = %v", got)
	}
	if got := NewClock(-1).Scale(); got != DefaultScale {
		t.Errorf("negative scale = %v", got)
	}
}

func TestNodeSlots(t *testing.T) {
	n := &Node{ID: 3, Cores: 2}
	if n.Slots() != 4 {
		t.Fatalf("slots = %d, want 4 (2 per core, §V)", n.Slots())
	}
	for i := 0; i < 4; i++ {
		if !n.Allocate() {
			t.Fatalf("allocation %d failed", i)
		}
	}
	if n.Allocate() {
		t.Error("over-allocation succeeded")
	}
	if n.InUse() != 4 {
		t.Errorf("InUse = %d", n.InUse())
	}
	n.Release()
	if !n.Allocate() {
		t.Error("slot not reusable after release")
	}
	if n.String() != "node-3" {
		t.Errorf("String = %q", n.String())
	}
}

func TestNodeReleaseNeverNegative(t *testing.T) {
	n := &Node{Cores: 1}
	n.Release()
	if n.InUse() != 0 {
		t.Errorf("InUse went negative: %d", n.InUse())
	}
}

func TestClusterDefaults(t *testing.T) {
	c := New(Config{})
	cfg := c.Config()
	if cfg.Nodes != 25 || cfg.CoresPerNode != 24 {
		t.Errorf("defaults: %+v (paper: 25 nodes)", cfg)
	}
	if len(c.Nodes()) != 25 {
		t.Errorf("nodes: %d", len(c.Nodes()))
	}
	if got := c.TotalSlots(); got != 25*24*2 {
		t.Errorf("slots: %d", got)
	}
}

func TestClusterLatency(t *testing.T) {
	c := New(Config{Nodes: 2, LinkLatency: 0.5})
	a, b := c.Nodes()[0], c.Nodes()[1]
	if got := c.Latency(a, a); got != 0 {
		t.Errorf("intra-node latency = %v", got)
	}
	if got := c.Latency(a, b); got != 0.5 {
		t.Errorf("inter-node latency = %v", got)
	}
	if got := c.Latency(nil, b); got != 0 {
		t.Errorf("nil-node latency = %v", got)
	}
}

// Property: allocation never exceeds capacity under any interleaving of
// allocate/release operations.
func TestQuickNodeCapacityInvariant(t *testing.T) {
	f := func(ops []bool, cores uint8) bool {
		n := &Node{Cores: int(cores%4) + 1}
		allocated := 0
		for _, alloc := range ops {
			if alloc {
				if n.Allocate() {
					allocated++
				}
			} else if allocated > 0 {
				n.Release()
				allocated--
			}
			if n.InUse() > n.Slots() || n.InUse() != allocated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
