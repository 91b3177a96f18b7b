package hocl

import "ginflow/internal/obs"

// Chemical-engine instrumentation. The reduction loop is the hottest
// code in the repo (BenchmarkReduceDiamondRules guards its allocation
// budget), so counts accumulate in plain engine-local integers and are
// flushed to these process-wide counters once per Reduce call — the
// hot loop itself never touches an atomic.
var (
	metReduceCalls = obs.Default().Counter("ginflow_hocl_reduce_calls_total",
		"Engine.Reduce invocations (one per agent reaction pass).")
	metRuleFirings = obs.Default().Counter("ginflow_hocl_rule_firings_total",
		"Rules fired by the reduction VM.")
	metGuardRejections = obs.Default().Counter("ginflow_hocl_guard_rejections_total",
		"Complete candidate matches rejected by a rule guard.")
)
