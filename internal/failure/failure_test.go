package failure

import (
	"math"
	"testing"

	"ginflow/internal/obs"
)

// TestZeroValueNeverFails: neither a zero config nor a nil schedule
// ever crashes an agent.
func TestZeroValueNeverFails(t *testing.T) {
	for _, s := range []*Schedule{NewSchedule(ChaosConfig{}), nil} {
		for i := 0; i < 100; i++ {
			if f := s.Draw(BoundaryAgentCrash); f.Kind != FaultNone {
				t.Fatalf("schedule %v drew %s", s, f.Kind)
			}
		}
		if s.Faults() != 0 {
			t.Errorf("schedule %v counted %d faults", s, s.Faults())
		}
	}
}

// TestAgentCrashUncapped: agent-crash draws are i.i.d. Bernoulli(p)
// even under the default MaxConsecutive, which would hold a capped
// stream to about 0.66 at p = 0.8 and halve Fig. 16's failure count.
func TestAgentCrashUncapped(t *testing.T) {
	for _, p := range []float64{0.2, 0.5, 0.8} {
		s := NewSchedule(ChaosConfig{Seed: 7, AgentCrashP: p, AgentCrashAfter: 15})
		const n = 100000
		crashes := 0
		for i := 0; i < n; i++ {
			f := s.Draw(BoundaryAgentCrash)
			if f.Kind == FaultCrash {
				crashes++
				if f.Delay != 15 {
					t.Fatalf("crash delay = %v, want 15", f.Delay)
				}
			}
		}
		if got := float64(crashes) / n; math.Abs(got-p) > 0.01 {
			t.Errorf("p=%v: empirical rate %v", p, got)
		}
		if s.Faults() != int64(crashes) {
			t.Errorf("Faults() = %d, want %d", s.Faults(), crashes)
		}
	}
}

// TestGeometricRetries simulates the restart-until-success process and
// compares total failures to the paper's p/(1-p)·N.
func TestGeometricRetries(t *testing.T) {
	for _, p := range []float64{0.5, 0.8} {
		s := NewSchedule(ChaosConfig{Seed: 11, AgentCrashP: p})
		const services = 2000
		failures := 0
		for i := 0; i < services; i++ {
			for s.Draw(BoundaryAgentCrash).Kind == FaultCrash { // restarted agent can fail again
				failures++
			}
		}
		want := p / (1 - p) * services
		if math.Abs(float64(failures)-want)/want > 0.1 {
			t.Errorf("p=%v: failures = %d, expected ≈ %v", p, failures, want)
		}
	}
}

// TestCrashOnlyScheduleDrawsNowhereElse: a schedule with only agent
// crashes configured is active on that boundary alone, and draws made
// at every other boundary neither fault nor count.
func TestCrashOnlyScheduleDrawsNowhereElse(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSchedule(ChaosConfig{Seed: 3, AgentCrashP: 0.5})
	s.SetMetrics(reg)
	for b := Boundary(0); b < boundaryCount; b++ {
		if s.Active(b) != (b == BoundaryAgentCrash) {
			t.Errorf("%s: Active = %v", b, s.Active(b))
		}
		for i := 0; i < 100; i++ {
			if f := s.Draw(b); b != BoundaryAgentCrash && f.Kind != FaultNone {
				t.Fatalf("%s drew %s under a crash-only config", b, f.Kind)
			}
		}
		draws := reg.Counter("ginflow_chaos_draws_total", "", obs.L("boundary", b.String())).Value()
		if want := map[bool]int64{true: 100, false: 0}[b == BoundaryAgentCrash]; draws != want {
			t.Errorf("%s: %d draws counted, want %d", b, draws, want)
		}
	}
}
