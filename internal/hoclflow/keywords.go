package hoclflow

import (
	"fmt"
	"regexp"
	"strings"

	"ginflow/internal/hocl"
)

// Reserved workflow atoms (paper §III-B/C). They key the tuples of a task
// sub-solution and mark adaptation state.
const (
	KeySRC     = hocl.Ident("SRC")     // incoming dependencies: SRC:<T1, ...>
	KeyDST     = hocl.Ident("DST")     // outgoing dependencies: DST:<T4, ...>
	KeySRV     = hocl.Ident("SRV")     // service to invoke: SRV:"s1"
	KeyIN      = hocl.Ident("IN")      // accumulated inputs: IN:<...>
	KeyPAR     = hocl.Ident("PAR")     // assembled parameter list: PAR:[...]
	KeyRES     = hocl.Ident("RES")     // invocation results: RES:<...>
	KeyNAME    = hocl.Ident("NAME")    // agent-local task identity: NAME:T1
	KeyPASS    = hocl.Ident("PASS")    // in-flight result message: PASS:T1:<...>
	KeyADAPT   = hocl.Ident("ADAPT")   // adaptation marker: ADAPT:"id"
	KeyTRIGGER = hocl.Ident("TRIGGER") // adaptation-fired marker: TRIGGER:"id"
	KeySEQ     = hocl.Ident("SEQ")     // per-inbox sequence header: SEQ:T1:n
	KeyVER     = hocl.Ident("VER")     // status version header: VER:T1:inc:push
	AtomERROR  = hocl.Ident("ERROR")   // failed invocation marker in RES
)

// Rule and external-function naming. Generated per-adaptation artifacts
// embed a sanitised adaptation id.
const (
	RuleGwSetup = "gw_setup"
	RuleGwCall  = "gw_call"
	RuleGwPass  = "gw_pass"
	RuleGwSend  = "gw_send"
	RuleGwRecv  = "gw_recv"
	RuleGwGc    = "gw_gc"

	FnInvoke = "invoke" // invoke(service, params) -> result | ERROR
	FnSend   = "send"   // send(dest, result...) -> nothing (agent-bound)
)

var taskNameRE = regexp.MustCompile(`^[A-Z][A-Za-z0-9_']*$`)

// ValidTaskName reports whether name is usable as a task identifier: it
// must parse as an HOCL Ident (leading capital), since task names become
// symbolic atoms in solutions.
func ValidTaskName(name string) bool { return taskNameRE.MatchString(name) }

var sanitizeRE = regexp.MustCompile(`[^a-z0-9_]`)

// SanitizeID lowercases and strips an adaptation id so it can be embedded
// in rule and function names.
func SanitizeID(id string) string {
	s := sanitizeRE.ReplaceAllString(strings.ToLower(id), "_")
	if s == "" {
		s = "a"
	}
	return s
}

// TriggerFuncName returns the agent-bound function name that fires
// adaptation id (distributed trigger_adapt, §IV-A).
func TriggerFuncName(id string) string { return "adapt_trigger_" + SanitizeID(id) }

// MvSrcFuncName returns the generated function that rewrites a
// destination's source set for adaptation id.
func MvSrcFuncName(id string) string { return "mv_src_fn_" + SanitizeID(id) }

// TriggerRuleName / AddDstRuleName / MvSrcRuleName name the generated
// per-adaptation rules (paper Fig. 7's trigger_adapt, add_dst1, mv_src4).
func TriggerRuleName(id, task string) string {
	return fmt.Sprintf("trigger_adapt_%s_%s", SanitizeID(id), strings.ToLower(task))
}

func AddDstRuleName(id, task string) string {
	return fmt.Sprintf("add_dst_%s_%s", SanitizeID(id), strings.ToLower(task))
}

func MvSrcRuleName(id string) string { return "mv_src_" + SanitizeID(id) }

// idents converts task names to Ident atoms.
func idents(names []string) []hocl.Atom {
	out := make([]hocl.Atom, len(names))
	for i, n := range names {
		out[i] = hocl.Ident(n)
	}
	return out
}
