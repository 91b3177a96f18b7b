package hoclflow

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ginflow/internal/hocl"
)

// buildDiamond assembles the paper's Fig. 3 workflow as a centralized
// global multiset with the Fig. 4 generic rules injected, plus any extra
// per-task rules and global rules.
func buildDiamond(extraTaskRules map[string][]*hocl.Rule, globalRules ...*hocl.Rule) *hocl.Solution {
	tasks := []TaskAttrs{
		{Name: "T1", Src: nil, Dst: []string{"T2", "T3"}, Service: "s1", In: []hocl.Atom{hocl.Str("input")}},
		{Name: "T2", Src: []string{"T1"}, Dst: []string{"T4"}, Service: "s2"},
		{Name: "T3", Src: []string{"T1"}, Dst: []string{"T4"}, Service: "s3"},
		{Name: "T4", Src: []string{"T2", "T3"}, Dst: nil, Service: "s4"},
	}
	global := hocl.NewSolution(GwPass())
	for _, r := range globalRules {
		global.Add(r)
	}
	for _, t := range tasks {
		rules := []*hocl.Rule{GwSetup(), GwCall()}
		rules = append(rules, extraTaskRules[t.Name]...)
		global.Add(TaskTuple(t.Name, t.SubSolution(rules...)))
	}
	return global
}

// invokeRecorder registers an invoke() that logs calls and fails the
// services listed in fail.
func invokeRecorder(e *hocl.Engine, fail map[string]bool) map[string]int {
	calls := map[string]int{}
	e.Funcs.Register(FnInvoke, func(args []hocl.Atom) ([]hocl.Atom, error) {
		name := string(args[0].(hocl.Str))
		calls[name]++
		if fail[name] {
			return []hocl.Atom{AtomERROR}, nil
		}
		return []hocl.Atom{hocl.Str("out-" + name)}, nil
	})
	return calls
}

// TestCentralizedDiamond runs the paper's Fig. 3 workflow to completion
// through the generic rules alone.
func TestCentralizedDiamond(t *testing.T) {
	global := buildDiamond(nil)
	e := hocl.NewEngine()
	calls := invokeRecorder(e, nil)
	if err := e.Reduce(global); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"s1", "s2", "s3", "s4"} {
		if calls[s] != 1 {
			t.Errorf("service %s invoked %d times, want 1", s, calls[s])
		}
	}
	t4 := FindTaskSub(global, "T4")
	if t4 == nil {
		t.Fatal("T4 sub-solution missing")
	}
	if got := StatusOf(t4); got != StatusCompleted {
		t.Errorf("T4 status = %v, want completed", got)
	}
	res := Results(t4)
	if len(res) != 1 || !res[0].Equal(hocl.Str("out-s4")) {
		t.Errorf("T4 results = %v", res)
	}
	// T4 must have received both T2's and T3's outputs in its parameters:
	// the PAR list was consumed by gw_call, so check the invocation count
	// and the emptied dependency bookkeeping instead.
	if n := len(PendingSources(t4)); n != 0 {
		t.Errorf("T4 still expects %d sources", n)
	}
	t1 := FindTaskSub(global, "T1")
	if n := len(identNames(t1, KeyDST)); n != 0 {
		t.Errorf("T1 still has %d destinations to serve", n)
	}
}

// TestCentralizedDiamondFailureWithoutAdaptationStalls checks that an
// ERROR result is not propagated by gw_pass: the workflow stalls rather
// than feeding ERROR downstream (adaptation is the paper's answer).
func TestCentralizedDiamondFailureWithoutAdaptationStalls(t *testing.T) {
	global := buildDiamond(nil)
	e := hocl.NewEngine()
	invokeRecorder(e, map[string]bool{"s2": true})
	if err := e.Reduce(global); err != nil {
		t.Fatal(err)
	}
	t2 := FindTaskSub(global, "T2")
	if got := StatusOf(t2); got != StatusFailed {
		t.Errorf("T2 status = %v, want failed", got)
	}
	t4 := FindTaskSub(global, "T4")
	if got := StatusOf(t4); got == StatusCompleted {
		t.Errorf("T4 must not complete when T2 failed without adaptation")
	}
	if got := PendingSources(t4); len(got) != 1 || got[0] != "T2" {
		t.Errorf("T4 pending sources = %v, want [T2]", got)
	}
}

// TestCentralizedAdaptiveWorkflow reproduces the paper's Figs. 5-8: T2 is
// potentially faulty; on ERROR the alternative T2' is wired in on-the-fly
// (add_dst on T1, mv_src on T4) and the workflow completes without a
// restart.
func TestCentralizedAdaptiveWorkflow(t *testing.T) {
	const aid = "a1"
	extra := map[string][]*hocl.Rule{
		"T1": {AddDstRule(aid, "T1", []string{"T2'"})},
		"T4": {MvSrcRule(aid)},
	}
	global := buildDiamond(extra, CentralTriggerRule(aid, "T2", []string{"T1"}, "T4"))
	// The alternative task T2' (paper Fig. 6, line 6.06), idle until T1
	// resends its result.
	alt := TaskAttrs{Name: "T2'", Src: []string{"T1"}, Dst: []string{"T4"}, Service: "s2alt"}
	global.Add(TaskTuple("T2'", alt.SubSolution(GwSetup(), GwCall())))

	e := hocl.NewEngine()
	calls := invokeRecorder(e, map[string]bool{"s2": true})
	e.Funcs.Register(MvSrcFuncName(aid), MvSrcFunc([]string{"T2"}, []string{"T2'"}))

	if err := e.Reduce(global); err != nil {
		t.Fatal(err)
	}

	if calls["s2"] != 1 || calls["s2alt"] != 1 {
		t.Errorf("faulty s2 called %d (want 1), replacement s2alt called %d (want 1)",
			calls["s2"], calls["s2alt"])
	}
	if calls["s4"] != 1 {
		t.Errorf("s4 called %d times, want 1", calls["s4"])
	}
	t4 := FindTaskSub(global, "T4")
	if got := StatusOf(t4); got != StatusCompleted {
		t.Fatalf("T4 status = %v, want completed (solution: %s)", got, hocl.Pretty(global))
	}
	// The TRIGGER:"a1" marker must be recorded in the global solution.
	if !global.Contains(TriggerMarker(aid)) {
		t.Error("TRIGGER marker missing from global solution")
	}
	// T2's error was consumed by trigger_adapt (paper Fig. 7: T2:<w2>).
	t2 := FindTaskSub(global, "T2")
	if containsError(Results(t2)) {
		t.Error("trigger_adapt must clear T2's ERROR")
	}
	// T2' completed and delivered.
	t2p := FindTaskSub(global, "T2'")
	if got := StatusOf(t2p); got != StatusCompleted {
		t.Errorf("T2' status = %v, want completed", got)
	}
	if n := len(identNames(t2p, KeyDST)); n != 0 {
		t.Errorf("T2' still has %d destinations pending", n)
	}
}

// TestAdaptationNotTriggeredWhenHealthy: the adaptation rules must stay
// dormant when the potentially-faulty service succeeds.
func TestAdaptationNotTriggeredWhenHealthy(t *testing.T) {
	const aid = "a1"
	extra := map[string][]*hocl.Rule{
		"T1": {AddDstRule(aid, "T1", []string{"T2'"})},
		"T4": {MvSrcRule(aid)},
	}
	global := buildDiamond(extra, CentralTriggerRule(aid, "T2", []string{"T1"}, "T4"))
	alt := TaskAttrs{Name: "T2'", Src: []string{"T1"}, Dst: []string{"T4"}, Service: "s2alt"}
	global.Add(TaskTuple("T2'", alt.SubSolution(GwSetup(), GwCall())))

	e := hocl.NewEngine()
	calls := invokeRecorder(e, nil) // nothing fails
	e.Funcs.Register(MvSrcFuncName(aid), MvSrcFunc([]string{"T2"}, []string{"T2'"}))

	if err := e.Reduce(global); err != nil {
		t.Fatal(err)
	}
	if calls["s2alt"] != 0 {
		t.Errorf("replacement service invoked %d times on healthy run", calls["s2alt"])
	}
	if global.Contains(TriggerMarker(aid)) {
		t.Error("TRIGGER marker must not appear on healthy run")
	}
	if got := StatusOf(FindTaskSub(global, "T4")); got != StatusCompleted {
		t.Errorf("T4 status = %v, want completed", got)
	}
}

// TestGwSendCallsSendPerDestination checks the decentralised sender rule:
// one send per destination, the result retained, ERROR never sent.
func TestGwSendCallsSendPerDestination(t *testing.T) {
	e := hocl.NewEngine()
	var sent []string
	e.Funcs.Register(FnSend, func(args []hocl.Atom) ([]hocl.Atom, error) {
		dest := string(args[0].(hocl.Ident))
		parts := make([]string, len(args)-1)
		for i, a := range args[1:] {
			parts[i] = a.String()
		}
		payload := strings.Join(parts, ", ")
		sent = append(sent, fmt.Sprintf("%s<-%s", dest, payload))
		return nil, nil
	})

	local := hocl.NewSolution(
		hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("r"))},
		hocl.Tuple{KeyDST, hocl.NewSolution(hocl.Ident("T4"), hocl.Ident("T5"))},
		GwSend(),
	)
	if err := e.Reduce(local); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 2 {
		t.Fatalf("sent %v, want 2 sends", sent)
	}
	if got := identNames(local, KeyDST); len(got) != 0 {
		t.Errorf("DST not drained: %v", got)
	}
	res := Results(local)
	if len(res) != 1 || !res[0].Equal(hocl.Str("r")) {
		t.Errorf("result must be retained: %v", res)
	}
}

func TestGwSendDoesNotSendError(t *testing.T) {
	e := hocl.NewEngine()
	sends := 0
	e.Funcs.Register(FnSend, func(args []hocl.Atom) ([]hocl.Atom, error) {
		sends++
		return nil, nil
	})
	local := hocl.NewSolution(
		hocl.Tuple{KeyRES, hocl.NewSolution(AtomERROR)},
		hocl.Tuple{KeyDST, hocl.NewSolution(hocl.Ident("T4"))},
		GwSend(),
	)
	if err := e.Reduce(local); err != nil {
		t.Fatal(err)
	}
	if sends != 0 {
		t.Errorf("ERROR result was sent %d times", sends)
	}
}

func TestGwSendWaitsForResult(t *testing.T) {
	e := hocl.NewEngine()
	sends := 0
	e.Funcs.Register(FnSend, func(args []hocl.Atom) ([]hocl.Atom, error) {
		sends++
		return nil, nil
	})
	local := hocl.NewSolution(
		hocl.Tuple{KeyRES, hocl.NewSolution()}, // empty: not yet produced
		hocl.Tuple{KeyDST, hocl.NewSolution(hocl.Ident("T4"))},
		GwSend(),
	)
	if err := e.Reduce(local); err != nil {
		t.Fatal(err)
	}
	if sends != 0 {
		t.Errorf("gw_send fired on empty RES (%d sends)", sends)
	}
	if got := identNames(local, KeyDST); len(got) != 1 {
		t.Errorf("DST must be untouched: %v", got)
	}
}

// TestGwRecvConsumesPassAndDependency checks the decentralised receiver
// rule, including duplicate-message suppression after recovery (§IV-B).
func TestGwRecvConsumesPassAndDependency(t *testing.T) {
	attrs := TaskAttrs{Name: "T4", Src: []string{"T2", "T3"}, Service: "s4"}
	local := attrs.LocalSolution(GwRecv())
	e := hocl.NewEngine()
	if err := e.Reduce(local); err != nil {
		t.Fatal(err)
	}

	// First result from T2.
	local.Add(PassMessage("T2", []hocl.Atom{hocl.Str("r2")}))
	if err := e.Reduce(local); err != nil {
		t.Fatal(err)
	}
	if got := PendingSources(local); len(got) != 1 || got[0] != "T3" {
		t.Fatalf("pending sources after T2 delivery: %v", got)
	}

	// Duplicate from T2 (recovered agent re-sent): must be ignored — the
	// dependency is already consumed.
	local.Add(PassMessage("T2", []hocl.Atom{hocl.Str("r2-dup")}))
	if err := e.Reduce(local); err != nil {
		t.Fatal(err)
	}
	in, _ := local.FindTuple(KeyIN)
	inSol := in[1].(*hocl.Solution)
	if inSol.Contains(hocl.Str("r2-dup")) {
		t.Errorf("duplicate result was accepted: %v", inSol)
	}
	r2 := 0
	for _, a := range inSol.Atoms() {
		if a.Equal(hocl.Str("r2")) {
			r2++
		}
	}
	if r2 != 1 {
		t.Errorf("IN = %v, want exactly one r2", inSol)
	}

	// A message from an unknown sender also parks harmlessly.
	local.Add(PassMessage("T9", []hocl.Atom{hocl.Str("stray")}))
	if err := e.Reduce(local); err != nil {
		t.Fatal(err)
	}
	if inSol2, _ := local.FindTuple(KeyIN); inSol2[1].(*hocl.Solution).Contains(hocl.Str("stray")) {
		t.Error("stray message was accepted into IN")
	}
}

// TestDecentralisedAgentPipeline chains two agent-local solutions through
// gw_send/gw_recv by hand, verifying the full decentralised data path
// that the agent package automates.
func TestDecentralisedAgentPipeline(t *testing.T) {
	producer := TaskAttrs{Name: "T1", Dst: []string{"T2"}, Service: "s1",
		In: []hocl.Atom{hocl.Str("input")}}.LocalSolution(GwSetup(), GwCall(), GwSend(), GwRecv())
	consumer := TaskAttrs{Name: "T2", Src: []string{"T1"}, Service: "s2"}.
		LocalSolution(GwSetup(), GwCall(), GwSend(), GwRecv())

	// Each agent has its own engine and function bindings (§IV-A).
	mailbox := map[string][]hocl.Atom{}
	newEngine := func(self string) *hocl.Engine {
		e := hocl.NewEngine()
		e.Funcs.Register(FnInvoke, func(args []hocl.Atom) ([]hocl.Atom, error) {
			return []hocl.Atom{hocl.Str("out-" + string(args[0].(hocl.Str)))}, nil
		})
		e.Funcs.Register(FnSend, func(args []hocl.Atom) ([]hocl.Atom, error) {
			dest := string(args[0].(hocl.Ident))
			mailbox[dest] = append(mailbox[dest], PassMessage(self, args[1:]))
			return nil, nil
		})
		return e
	}

	if err := newEngine("T1").Reduce(producer); err != nil {
		t.Fatal(err)
	}
	msgs := mailbox["T2"]
	if len(msgs) != 1 {
		t.Fatalf("T2 mailbox: %v", msgs)
	}
	consumer.Add(msgs...)
	if err := newEngine("T2").Reduce(consumer); err != nil {
		t.Fatal(err)
	}
	if got := StatusOf(consumer); got != StatusCompleted {
		t.Fatalf("consumer status = %v (solution %s)", got, consumer)
	}
	res := Results(consumer)
	if len(res) != 1 || !res[0].Equal(hocl.Str("out-s2")) {
		t.Errorf("consumer results = %v", res)
	}
}

// TestLocalTriggerRule checks the decentralised trigger: ERROR in RES
// calls the agent-bound trigger function and clears the error.
func TestLocalTriggerRule(t *testing.T) {
	local := hocl.NewSolution(
		hocl.Tuple{KeyRES, hocl.NewSolution(AtomERROR)},
		LocalTriggerRule("a1", "T2"),
	)
	e := hocl.NewEngine()
	fired := 0
	e.Funcs.Register(TriggerFuncName("a1"), func(args []hocl.Atom) ([]hocl.Atom, error) {
		fired++
		return nil, nil
	})
	if err := e.Reduce(local); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("trigger fired %d times, want 1", fired)
	}
	if containsError(Results(local)) {
		t.Error("ERROR must be cleared after trigger")
	}
}

// TestMvSrcFunc: the mv_src function and MvSrcSources, the rewrite
// crash recovery calls to predict it, agree on every case, and both are
// idempotent.
func TestMvSrcFunc(t *testing.T) {
	cases := []struct {
		name              string
		srcs, remove, add []string
		want              []string
	}{
		{"rewire", []string{"T2", "T3", "R1"}, []string{"T2", "T9"}, []string{"R1", "R2"}, []string{"T3", "R1", "R2"}},
		{"duplicate source", []string{"T3", "T3", "T2"}, []string{"T2"}, []string{"R1"}, []string{"T3", "R1"}},
		{"removed source listed twice", []string{"T2", "T3", "T2"}, []string{"T2"}, []string{"R1"}, []string{"T3", "R1"}},
		{"replacement already present", []string{"R1", "T2"}, []string{"T2"}, []string{"R1", "R2"}, []string{"R1", "R2"}},
		{"no sources left", []string{"T2"}, []string{"T2"}, nil, []string{}},
		{"empty", nil, []string{"T2"}, []string{"R1"}, []string{"R1"}},
	}
	for _, tc := range cases {
		fn := MvSrcFunc(tc.remove, tc.add)
		once, err := fn(idents(tc.srcs))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		twice, err := fn(once)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		predicted := MvSrcSources(tc.srcs, tc.remove, tc.add)
		if !reflect.DeepEqual(predicted, tc.want) {
			t.Errorf("%s: MvSrcSources = %v, want %v", tc.name, predicted, tc.want)
		}
		if !reflect.DeepEqual(once, idents(predicted)) {
			t.Errorf("%s: mv_src = %v, MvSrcSources = %v", tc.name, once, predicted)
		}
		if !reflect.DeepEqual(twice, once) {
			t.Errorf("%s: mv_src twice = %v, once = %v", tc.name, twice, once)
		}
		if again := MvSrcSources(predicted, tc.remove, tc.add); !reflect.DeepEqual(again, predicted) {
			t.Errorf("%s: MvSrcSources twice = %v, once = %v", tc.name, again, predicted)
		}
	}
	fn := MvSrcFunc([]string{"T2"}, []string{"R1"})
	if _, err := fn([]hocl.Atom{hocl.Ident("T3"), hocl.Str("notatask")}); err == nil {
		t.Error("non-ident source must error")
	}
}

func TestStatusHelpers(t *testing.T) {
	idle := TaskAttrs{Name: "T2", Src: []string{"T1"}, Service: "s"}.SubSolution()
	if got := StatusOf(idle); got != StatusIdle {
		t.Errorf("status = %v, want idle", got)
	}
	ready := TaskAttrs{Name: "T1", Service: "s"}.SubSolution()
	if got := StatusOf(ready); got != StatusReady {
		t.Errorf("status = %v, want ready", got)
	}
	// RES is a frozen template attribute: a result replaces the tuple.
	done := TaskAttrs{Name: "T1", Service: "s"}.SubSolution()
	_, idx := done.FindTuple(KeyRES)
	done.ReplaceAt(idx, hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("out"))})
	if got := StatusOf(done); got != StatusCompleted {
		t.Errorf("status = %v, want completed", got)
	}
	failed := TaskAttrs{Name: "T1", Service: "s"}.SubSolution()
	_, idx = failed.FindTuple(KeyRES)
	failed.ReplaceAt(idx, hocl.Tuple{KeyRES, hocl.NewSolution(AtomERROR)})
	if got := StatusOf(failed); got != StatusFailed {
		t.Errorf("status = %v, want failed", got)
	}
	for s, want := range map[Status]string{
		StatusIdle: "idle", StatusReady: "ready",
		StatusCompleted: "completed", StatusFailed: "failed", Status(42): "unknown",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q", s, s.String())
		}
	}
}

func TestTaskNameValidation(t *testing.T) {
	valid := []string{"T1", "T2'", "MPROJECT_1", "A", "Zz9_'"}
	invalid := []string{"", "t1", "1T", "T 1", "T-1", "_T", "'T"}
	for _, n := range valid {
		if !ValidTaskName(n) {
			t.Errorf("ValidTaskName(%q) = false", n)
		}
	}
	for _, n := range invalid {
		if ValidTaskName(n) {
			t.Errorf("ValidTaskName(%q) = true", n)
		}
	}
}

func TestSanitizeID(t *testing.T) {
	cases := map[string]string{
		"a1":      "a1",
		"A-1 x":   "a_1_x",
		"":        "a",
		"Adapt#2": "adapt_2",
	}
	for in, want := range cases {
		if got := SanitizeID(in); got != want {
			t.Errorf("SanitizeID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLocalSolutionHasName(t *testing.T) {
	local := TaskAttrs{Name: "T7", Service: "s"}.LocalSolution()
	if tp, idx := local.FindTuple(KeyNAME); idx < 0 || !tp[1].Equal(hocl.Ident("T7")) {
		t.Errorf("NAME = %v", tp)
	}
	sub := TaskAttrs{Name: "T7", Service: "s"}.SubSolution()
	if tp, idx := sub.FindTuple(KeyNAME); idx >= 0 {
		t.Errorf("SubSolution must not carry NAME, got %v", tp)
	}
}

// genericRules lists the six shared constructors by name.
var genericRules = map[string]func() *hocl.Rule{
	RuleGwSetup: GwSetup, RuleGwCall: GwCall, RuleGwPass: GwPass,
	RuleGwSend: GwSend, RuleGwRecv: GwRecv, RuleGwGc: GwGc,
}

// TestGenericRulesAreShared: every call of a generic-rule constructor
// returns the one process-wide instance.
func TestGenericRulesAreShared(t *testing.T) {
	for name, build := range genericRules {
		a, b := build(), build()
		if a != b {
			t.Errorf("%s: two calls returned different instances", name)
		}
		if a.Name != name {
			t.Errorf("%s: shared instance is named %q", name, a.Name)
		}
	}
}

// TestSharedRulesLeaveSolutionsIndependent: an agent that consumes its
// one-shot gw_setup and gw_call takes them out of its own local solution
// only; a second agent built from the same instances still holds both
// and runs to completion later.
func TestSharedRulesLeaveSolutionsIndependent(t *testing.T) {
	build := func(name string) *hocl.Solution {
		return TaskAttrs{Name: name, Service: "s", In: []hocl.Atom{hocl.Str("input")}}.
			LocalSolution(GwSetup(), GwCall(), GwSend(), GwRecv(), GwGc())
	}
	holds := func(sol *hocl.Solution, r *hocl.Rule) bool {
		for _, a := range sol.Atoms() {
			if a == hocl.Atom(r) {
				return true
			}
		}
		return false
	}
	reduce := func(sol *hocl.Solution) {
		t.Helper()
		e := hocl.NewEngine()
		invokeRecorder(e, nil)
		if err := e.Reduce(sol); err != nil {
			t.Fatal(err)
		}
		if got := StatusOf(sol); got != StatusCompleted {
			t.Fatalf("status = %v (solution %s)", got, sol)
		}
	}
	first, second := build("T1"), build("T2")
	reduce(first)
	for _, r := range []*hocl.Rule{GwSetup(), GwCall()} {
		if holds(first, r) {
			t.Errorf("first agent still holds one-shot %s after firing it", r.Name)
		}
		if !holds(second, r) {
			t.Errorf("second agent lost %s when the first consumed its own", r.Name)
		}
	}
	reduce(second)
}

// TestSharedRulesConcurrentFirstReduce: 64 agents, each with its own
// engine and local solution, reduce at once over one set of rule
// instances — the process-wide ones, and a freshly parsed (never
// compiled) set, so every -count iteration races the first compile.
// Meaningful under -race.
func TestSharedRulesConcurrentFirstReduce(t *testing.T) {
	shared := []*hocl.Rule{GwSetup(), GwCall(), GwSend(), GwRecv(), GwGc()}
	fresh := make([]*hocl.Rule, len(shared))
	for i, r := range shared {
		fresh[i] = hocl.MustParseRuleBody(r.Name, r.Body(), nil)
		if !fresh[i].Equal(r) || fresh[i] == r {
			t.Fatalf("re-parsed %s is not an equal, distinct rule", r.Name)
		}
	}
	for _, rules := range [][]*hocl.Rule{shared, fresh} {
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sol := TaskAttrs{Name: "T1", Src: []string{"T0"}, Dst: []string{"T2"}, Service: "s"}.LocalSolution(rules...)
				sol.Add(PassMessage("T0", []hocl.Atom{hocl.Str("in")}), PassMessage("T9", []hocl.Atom{hocl.Str("stray")}))
				e := hocl.NewEngine()
				e.Funcs.Register(FnInvoke, func(args []hocl.Atom) ([]hocl.Atom, error) {
					return []hocl.Atom{hocl.Str("out")}, nil
				})
				sent := 0
				e.Funcs.Register(FnSend, func(args []hocl.Atom) ([]hocl.Atom, error) {
					sent++
					return nil, nil
				})
				if err := e.Reduce(sol); err != nil {
					t.Error(err)
					return
				}
				if got := StatusOf(sol); got != StatusCompleted || sent != 1 {
					t.Errorf("status = %v, %d sends; want completed, 1 (solution %s)", got, sent, sol)
				}
			}()
		}
		wg.Wait()
	}
}

// TestAdaptationRulesStayPerCall: the rules that embed an adaptation id
// are built per call — sharing one across adaptations would rewire the
// wrong region (what the adapt-swap workload guards end to end).
func TestAdaptationRulesStayPerCall(t *testing.T) {
	pairs := map[string][2]*hocl.Rule{
		"add_dst": {AddDstRule("a1", "T1", []string{"R1"}), AddDstRule("a2", "T1", []string{"R1"})},
		"mv_src":  {MvSrcRule("a1"), MvSrcRule("a2")},
	}
	for kind, p := range pairs {
		if p[0] == p[1] || p[0].Equal(p[1]) || p[0].Name == p[1].Name {
			t.Errorf("%s: rules of adaptations a1 and a2 are not distinct:\n%s\n%s", kind, p[0], p[1])
		}
		for i, id := range []string{`"a1"`, `"a2"`} {
			if !strings.Contains(p[i].Body(), id) {
				t.Errorf("%s: rule %s does not name its adaptation %s", kind, p[i].Body(), id)
			}
		}
	}
	if AddDstRule("a1", "T1", []string{"R1"}) == AddDstRule("a1", "T1", []string{"R1"}) {
		t.Error("add_dst: two calls returned one instance")
	}
}

// TestBuiltinTableConcurrentOverlays: every engine resolves the
// built-ins from one shared table, beneath an overlay of its own. 64
// engines run their first reductions concurrently over one shared rule
// set; gw_setup calls the built-in list, and each engine's send and
// invoke are its own, so each send sees only its engine's destination
// and result. Every other engine also shadows list in its overlay,
// which must reach no other engine.
func TestBuiltinTableConcurrentOverlays(t *testing.T) {
	rules := []*hocl.Rule{GwSetup(), GwCall(), GwSend(), GwRecv(), GwGc()}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst, out := fmt.Sprintf("D%d", i), hocl.Str(fmt.Sprintf("out-%d", i))
			sol := TaskAttrs{Name: "T1", Src: []string{"T0"}, Dst: []string{dst}, Service: "s"}.LocalSolution(rules...)
			sol.Add(PassMessage("T0", []hocl.Atom{hocl.Str("in")}))
			e := hocl.NewEngine()
			e.Funcs.Register(FnInvoke, func(args []hocl.Atom) ([]hocl.Atom, error) {
				return []hocl.Atom{out}, nil
			})
			var sends [][]hocl.Atom
			e.Funcs.Register(FnSend, func(args []hocl.Atom) ([]hocl.Atom, error) {
				sends = append(sends, append([]hocl.Atom(nil), args...))
				return nil, nil
			})
			shadowed := 0
			if i%2 == 1 {
				list, _ := e.Funcs.Lookup("list")
				e.Funcs.Register("list", func(args []hocl.Atom) ([]hocl.Atom, error) {
					shadowed++
					return list(args)
				})
			}
			if err := e.Reduce(sol); err != nil {
				t.Error(err)
				return
			}
			want := [][]hocl.Atom{{hocl.Ident(dst), out}}
			if !reflect.DeepEqual(sends, want) {
				t.Errorf("engine %d sent %v, want %v", i, sends, want)
			}
			if want := i % 2; shadowed != want {
				t.Errorf("engine %d: its own list ran %d times, want %d", i, shadowed, want)
			}
		}()
	}
	wg.Wait()
}
