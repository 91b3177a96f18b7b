package failure

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// drawAll drains n draws of one boundary into a kind sequence.
func drawAll(s *Schedule, b Boundary, n int) []FaultKind {
	out := make([]FaultKind, n)
	for i := range out {
		out[i] = s.Draw(b).Kind
	}
	return out
}

func soakConfig(seed int64) ChaosConfig {
	return ChaosConfig{
		Seed:         seed,
		MessageDropP: 0.2, MessageDupP: 0.1, MessageDelayP: 0.1, MessageReorderP: 0.1,
		InvokeErrorP: 0.2, InvokeTimeoutP: 0.1, InvokeSlowP: 0.1,
		DeployErrorP:  0.3,
		JournalErrorP: 0.2, JournalTornP: 0.1, JournalSlowSyncP: 0.2,
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, b := range []Boundary{BoundaryMessage, BoundaryInvoke, BoundaryDeploy, BoundaryJournalWrite, BoundaryJournalSync} {
		a := drawAll(NewSchedule(soakConfig(42)), b, 500)
		c := drawAll(NewSchedule(soakConfig(42)), b, 500)
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("boundary %s: draw %d differs between same-seed schedules: %s vs %s", b, i, a[i], c[i])
			}
		}
	}
}

func TestScheduleSeedsDiffer(t *testing.T) {
	a := drawAll(NewSchedule(soakConfig(1)), BoundaryMessage, 200)
	b := drawAll(NewSchedule(soakConfig(2)), BoundaryMessage, 200)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draw sequences")
	}
}

func TestScheduleMaxConsecutive(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, InvokeErrorP: 1, MaxConsecutive: 3}
	s := NewSchedule(cfg)
	kinds := drawAll(s, BoundaryInvoke, 20)
	consec := 0
	for i, k := range kinds {
		if k == FaultNone {
			if consec != 3 {
				t.Fatalf("draw %d: forced success after %d faults, want 3", i, consec)
			}
			consec = 0
			continue
		}
		consec++
		if consec > 3 {
			t.Fatalf("draw %d: %d consecutive faults exceed MaxConsecutive=3", i, consec)
		}
	}
}

func TestScheduleNilSafe(t *testing.T) {
	var s *Schedule
	if s.Active(BoundaryMessage) {
		t.Fatal("nil schedule reports an active boundary")
	}
	if f := s.Draw(BoundaryMessage); f.Kind != FaultNone {
		t.Fatalf("nil schedule drew %s", f.Kind)
	}
	s.Sleep(1)
	s.SetSleeper(nil)
	if s.Faults() != 0 {
		t.Fatal("nil schedule counted faults")
	}
	if s.SettleSeconds() != 0 {
		t.Fatal("nil schedule settles")
	}
}

func TestScheduleCountsAndErrors(t *testing.T) {
	s := NewSchedule(ChaosConfig{Seed: 3, JournalErrorP: 0.5, JournalTornP: 0.5, MaxConsecutive: -1})
	counts := map[FaultKind]int64{}
	for i := 0; i < 50; i++ {
		f := s.Draw(BoundaryJournalWrite)
		counts[f.Kind]++
		switch f.Kind {
		case FaultError, FaultTorn:
		default:
			t.Fatalf("draw %d: unexpected kind %s with P(error)+P(torn)=1", i, f.Kind)
		}
		if !errors.Is(f.Err, ErrInjected) {
			t.Fatalf("draw %d: fault error %v does not wrap ErrInjected", i, f.Err)
		}
	}
	if counts[FaultError] == 0 || counts[FaultTorn] == 0 {
		t.Fatalf("expected both kinds; got %v", counts)
	}
	if s.Faults() != 50 {
		t.Fatalf("Faults = %d, want 50", s.Faults())
	}
}

func TestScheduleSleeper(t *testing.T) {
	s := NewSchedule(ChaosConfig{Seed: 1, MessageDropP: 0.1})
	var slept float64
	s.SetSleeper(func(sec float64) { slept += sec })
	s.Sleep(2.5)
	s.Sleep(-1) // ignored
	if slept != 2.5 {
		t.Fatalf("slept %v, want 2.5", slept)
	}
}

func TestRetryConfigDelay(t *testing.T) {
	rc := RetryConfig{}.WithDefaults()
	if rc.MaxAttempts != 5 || rc.BackoffBase != 0.5 || rc.BackoffFactor != 2 {
		t.Fatalf("unexpected defaults: %+v", rc)
	}
	want := []float64{0.5, 1, 2, 4}
	for i, w := range want {
		if got := rc.Delay(i + 1); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestChaosConfigEnabledAndSettle(t *testing.T) {
	if (ChaosConfig{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if (ChaosConfig{InvokeErrorP: 0.1}).SettleSeconds() != 0 {
		t.Fatal("invoke-only config should not require settling")
	}
	c := ChaosConfig{MessageDropP: 0.1}
	if !c.Enabled() || c.SettleSeconds() <= 0 {
		t.Fatalf("message chaos must enable and settle; settle=%v", c.SettleSeconds())
	}
	crash := ChaosConfig{AgentCrashP: 0.5}
	if !crash.Enabled() || crash.SettleSeconds() != 0 {
		t.Fatalf("crash-only chaos must enable without settling; settle=%v", crash.SettleSeconds())
	}
}

func TestChaosConfigValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  ChaosConfig
		bad  string // substring of the error; "" accepts
	}{
		{"zero", ChaosConfig{}, ""},
		{"crash p=1", ChaosConfig{AgentCrashP: 1, AgentCrashAfter: 15}, ""},
		{"kinds sum to 1", ChaosConfig{JournalErrorP: 0.5, JournalTornP: 0.5}, ""},
		{"crash p above 1", ChaosConfig{AgentCrashP: 1.5}, "agent-crash"},
		{"negative crash p", ChaosConfig{AgentCrashP: -0.1}, "agent-crash"},
		{"NaN probability", ChaosConfig{SpaceDupP: math.NaN()}, "space"},
		{"message kinds sum above 1", ChaosConfig{MessageDropP: 0.6, MessageDelayP: 0.6}, "message"},
		{"invoke kinds sum above 1", ChaosConfig{InvokeErrorP: 0.5, InvokeTimeoutP: 0.3, InvokeSlowP: 0.3}, "invoke"},
		{"negative crash delay", ChaosConfig{AgentCrashP: 0.5, AgentCrashAfter: -1}, "AgentCrashAfter"},
		{"negative redelivery", ChaosConfig{RedeliverDelay: -4}, "RedeliverDelay"},
		{"negative socket delay", ChaosConfig{SocketDelayMax: -1}, "SocketDelayMax"},
	} {
		err := c.cfg.Validate()
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.bad)
		}
	}
}

// TestChaosConfigValidateConcurrent: worker nodes validate assignments
// on concurrent read loops, so reading a config's fault table must
// write no shared memory (run under -race).
func TestChaosConfigValidateConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := ChaosConfig{AgentCrashP: float64(i) / 200, MessageDelayMax: float64(g)}
				if err := c.Validate(); err != nil || !c.Enabled() && i > 0 {
					t.Errorf("config %+v: err %v, enabled %v", c, err, c.Enabled())
				}
			}
		}()
	}
	wg.Wait()
}
