package hoclflow

import (
	"fmt"
	"strings"

	"ginflow/internal/hocl"
)

// The six generic rules are the same HOCL program in every agent (and in
// every centralized sub-solution), so each is parsed once per process and
// its constructor returns that one *hocl.Rule. A rule is immutable —
// Clone returns the rule itself, and its matcher, guard and product
// programs are compiled once, on first use — so the instance is safely
// shared by every solution and engine, on any goroutine: what an agent
// owns is its local solution, not its rules, and consuming a one-shot
// rule removes it from that solution only. The per-task adaptation rules
// further down embed an adaptation id and stay per call.
var (
	gwSetup = hocl.MustParseRuleBody(RuleGwSetup,
		`replace-one SRC:<>, IN:<*w> by SRC:<>, PAR:list(*w)`, nil)
	gwCall = hocl.MustParseRuleBody(RuleGwCall,
		`replace-one SRC:<>, SRV:s, PAR:p, RES:<*w> by SRC:<>, SRV:s, RES:<invoke(s, p), *w>`, nil)
	gwPass = hocl.MustParseRuleBody(RuleGwPass,
		`replace ti:<RES:<r, *res>, DST:<tj, *dst>, *oi>, tj:<SRC:<ti, *src>, IN:<*win>, *oj>
		 by ti:<RES:<r, *res>, DST:<*dst>, *oi>, tj:<SRC:<*src>, IN:<r, *res, *win>, *oj>
		 if !(r == ERROR)`, nil)
	gwSend = hocl.MustParseRuleBody(RuleGwSend,
		`replace RES:<r, *res>, DST:<d, *dst> by RES:<r, *res>, DST:<*dst>, send(d, r, *res) if !(r == ERROR)`, nil)
	gwRecv = hocl.MustParseRuleBody(RuleGwRecv,
		`replace PASS:t:<*res>, SRC:<t, *src>, IN:<*win> by SRC:<*src>, IN:<*res, *win>`, nil)
	gwGc = hocl.MustParseRuleBody(RuleGwGc,
		`replace PASS:t:<*res>, SRC:<>, RES:<r, *rest> by SRC:<>, RES:<r, *rest>`, nil)
)

// GwSetup returns the paper's gw_setup rule (Fig. 4, lines 4.01-4.03):
// once every dependency is satisfied (SRC is empty), assemble the
// parameter list from the accumulated inputs.
//
//	replace-one SRC:<>, IN:<*w> by SRC:<>, PAR:list(*w)
//
// Every call returns the one shared, immutable instance, parsed once per
// process and compiled on its first use.
func GwSetup() *hocl.Rule { return gwSetup }

// GwCall returns the paper's gw_call rule (Fig. 4, lines 4.04-4.06):
// invoke the service with the assembled parameters and store the result.
// invoke is an external function bound by the executor/agent; it returns
// the ERROR atom on service failure.
//
//	replace-one SRC:<>, SRV:s, PAR:p, RES:<*w>
//	by SRC:<>, SRV:s, RES:<invoke(s, p), *w>
//
// Every call returns the one shared, immutable instance, parsed once per
// process and compiled on its first use.
func GwCall() *hocl.Rule { return gwCall }

// GwPass returns the paper's gw_pass rule (Fig. 4, lines 4.07-4.11) for
// centralized execution: it moves a produced result from a source task's
// RES to a destination task's IN across sub-solutions, retiring the
// satisfied dependency on both sides. ERROR results are not propagated —
// they are reserved for the adaptation machinery (§III-C).
//
//	replace ti:<RES:<r, *res>, DST:<tj, *dst>, *oi>,
//	        tj:<SRC:<ti, *src>, IN:<*win>, *oj>
//	by      ti:<RES:<r, *res>, DST:<*dst>, *oi>,
//	        tj:<SRC:<*src>, IN:<r, *res, *win>, *oj>
//	if !(r == ERROR)
//
// Every call returns the one shared, immutable instance, parsed once per
// process and compiled on its first use.
func GwPass() *hocl.Rule { return gwPass }

// GwSend returns the decentralised sender half of gw_pass (§IV-A): "once
// the result of the invocation ... is collected, a SA triggers a local
// version of the gw_pass rule which calls a function that sends a message
// directly to the destination SA". send is an agent-bound external
// function; it transmits the result molecules to destination d and
// produces nothing locally.
//
//	replace RES:<r, *res>, DST:<d, *dst>
//	by RES:<r, *res>, DST:<*dst>, send(d, r, *res)
//	if !(r == ERROR)
//
// Every call returns the one shared, immutable instance, parsed once per
// process and compiled on its first use.
func GwSend() *hocl.Rule { return gwSend }

// GwRecv returns the decentralised receiver half of gw_pass: a PASS
// message from source t satisfies the matching dependency and feeds the
// carried result into IN. Duplicate PASS messages (possible after a
// recovery replay, §IV-B) do not match once the dependency is consumed,
// which is exactly the paper's "successors take into account only the
// first result received".
//
//	replace PASS:t:<*res>, SRC:<t, *src>, IN:<*win>
//	by SRC:<*src>, IN:<*res, *win>
//
// Every call returns the one shared, immutable instance, parsed once per
// process and compiled on its first use.
func GwRecv() *hocl.Rule { return gwRecv }

// GwGc returns the stale-PASS collector: once a task has invoked its
// service (RES holds a result, so no further input can ever be
// consumed), any PASS still in the local solution is garbage. Such
// leftovers arise from at-least-once transport (a redelivered PASS
// whose dependency gw_recv already retired) and from adaptation races
// (a faulty final's PASS landing after mv_src rewired SRC away from
// it). Collecting them keeps the converged solution — and therefore the
// space fingerprint — independent of delivery timing. The RES guard is
// what makes collection safe: before the invocation, an early PASS from
// a replacement final must survive until mv_src wires its sender into
// SRC.
//
//	replace PASS:t:<*res>, SRC:<>, RES:<r, *rest>
//	by SRC:<>, RES:<r, *rest>
//
// Every call returns the one shared, immutable instance, parsed once per
// process and compiled on its first use.
func GwGc() *hocl.Rule { return gwGc }

// PassMessage builds the molecule carried by a result transfer from task
// src: PASS:src:<res...>. The carried solution is marked inert at build
// time: the results come out of the sender's already-reduced RES solution
// (gw_send only matches an inert RES), so the receiving engine can match
// gw_recv immediately instead of first reducing the payload — and the
// shared payload is never written to.
func PassMessage(src string, res []hocl.Atom) hocl.Atom {
	sol := hocl.NewSolution(res...)
	sol.SetInert(true)
	return hocl.Tuple{KeyPASS, hocl.Ident(src), sol}
}

// AdaptMarker builds the ADAPT:"id" molecule that enables an adaptation's
// add_dst/mv_src rules (paper Fig. 7: "the presence of ADAPT is
// mandatory to apply these adaptation rules").
func AdaptMarker(id string) hocl.Atom {
	return hocl.Tuple{KeyADAPT, hocl.Str(id)}
}

// TriggerMarker builds the TRIGGER:"id" status molecule recording that an
// adaptation fired.
func TriggerMarker(id string) hocl.Atom {
	return hocl.Tuple{KeyTRIGGER, hocl.Str(id)}
}

// AddDstRule generates the add_dst rule for a source task of a replaced
// sub-workflow (paper Fig. 7, lines 7.01-7.03): when the adaptation
// marker arrives, new destinations are appended, which re-enables
// gw_send/gw_pass for the already-produced result ("T1 needs to resend
// its result to the new destination T2'").
//
//	replace-one ADAPT:"id", DST:<*dst> by DST:<*dst, N1, ..., Nk>
func AddDstRule(id, sourceTask string, newDsts []string) *hocl.Rule {
	body := fmt.Sprintf(`replace-one ADAPT:%q, DST:<*dst> by DST:<*dst, %s>`,
		id, strings.Join(newDsts, ", "))
	return hocl.MustParseRuleBody(AddDstRuleName(id, sourceTask), body, nil)
}

// MvSrcRule generates the mv_src rule for the destination of a replaced
// sub-workflow (paper Fig. 7, lines 7.04-7.06): on adaptation, the
// expected sources are rewritten (faulty sources out, replacement sources
// in) and IN is emptied, discarding "results that will not be relevant
// after reconfiguration". The source-set rewrite is delegated to the
// external function named MvSrcFuncName(id) — see the package comment for
// why this is a function rather than a pure pattern.
//
//	replace-one ADAPT:"id", SRC:<*src>, IN:<*win> by SRC:<fn(*src)>, IN:<>
func MvSrcRule(id string) *hocl.Rule {
	body := fmt.Sprintf(`replace-one ADAPT:%q, SRC:<*src>, IN:<*win> by SRC:<%s(*src)>, IN:<>`,
		id, MvSrcFuncName(id))
	return hocl.MustParseRuleBody(MvSrcRuleName(id), body, nil)
}

// MvSrcFunc builds the source-set rewrite function registered under
// MvSrcFuncName(id): it removes the faulty sources and adds the
// replacement sources (deduplicated, idempotent).
func MvSrcFunc(removeSrcs, addSrcs []string) hocl.Func {
	remove := make(map[hocl.Ident]bool, len(removeSrcs))
	for _, r := range removeSrcs {
		remove[hocl.Ident(r)] = true
	}
	return func(args []hocl.Atom) ([]hocl.Atom, error) {
		var out []hocl.Atom
		seen := map[hocl.Ident]bool{}
		for _, a := range args {
			id, ok := a.(hocl.Ident)
			if !ok {
				return nil, fmt.Errorf("mv_src: source %v is not a task name", a)
			}
			if remove[id] || seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, id)
		}
		for _, add := range addSrcs {
			id := hocl.Ident(add)
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		return out, nil
	}
}

// LocalTriggerRule generates the decentralised trigger_adapt rule placed
// in a potentially-faulty task's agent (§IV-A): on ERROR, clear RES and
// call the agent-bound trigger function, which messages ADAPT:"id" to the
// affected agents and TRIGGER:"id" to the shared space.
//
//	replace-one RES:<ERROR, *w> by RES:<>, adapt_trigger_id()
func LocalTriggerRule(id, faultyTask string) *hocl.Rule {
	body := fmt.Sprintf(`replace-one RES:<ERROR, *w> by RES:<>, %s()`, TriggerFuncName(id))
	return hocl.MustParseRuleBody(TriggerRuleName(id, faultyTask), body, nil)
}

// CentralTriggerRule generates the centralized trigger_adapt rule (paper
// Fig. 7, lines 7.07-7.09) for one potentially-faulty task: it matches
// the ERROR in the faulty task's sub-solution and injects the ADAPT
// marker into every source and the destination, plus a TRIGGER status
// marker in the global solution.
//
//	replace-one F:<RES:<ERROR, *wr>, *wf>, S1:<*w1>, ..., D:<*wd>
//	by F:<RES:<>, *wf>, S1:<ADAPT:"id", *w1>, ..., D:<ADAPT:"id", *wd>, TRIGGER:"id"
func CentralTriggerRule(id, faultyTask string, sources []string, dest string) *hocl.Rule {
	var pat, prod []string
	pat = append(pat, fmt.Sprintf(`%s:<RES:<ERROR, *wr>, *wf>`, faultyTask))
	prod = append(prod, fmt.Sprintf(`%s:<RES:<>, *wf>`, faultyTask))
	for i, s := range sources {
		pat = append(pat, fmt.Sprintf(`%s:<*ws%d>`, s, i))
		prod = append(prod, fmt.Sprintf(`%s:<ADAPT:%q, *ws%d>`, s, id, i))
	}
	pat = append(pat, fmt.Sprintf(`%s:<*wd>`, dest))
	prod = append(prod, fmt.Sprintf(`%s:<ADAPT:%q, *wd>`, dest, id))
	prod = append(prod, fmt.Sprintf(`TRIGGER:%q`, id))
	body := "replace-one " + strings.Join(pat, ", ") + " by " + strings.Join(prod, ", ")
	return hocl.MustParseRuleBody(TriggerRuleName(id, faultyTask), body, nil)
}

// TaskAttrs describes one task's workflow attributes, the four atoms of
// Fig. 3 plus initial inputs.
type TaskAttrs struct {
	Name    string      // task identity (must satisfy ValidTaskName)
	Src     []string    // upstream dependencies
	Dst     []string    // downstream dependencies
	Service string      // service name for SRV
	In      []hocl.Atom // initial inputs (paper footnote 4)
}

// SubSolution builds the task's sub-solution for the centralized global
// multiset (Fig. 3): SRC:<...>, DST:<...>, SRV:"s", IN:<...>, RES:<>,
// plus the given rules (generic and adaptation).
func (t TaskAttrs) SubSolution(rules ...*hocl.Rule) *hocl.Solution {
	atoms := t.attrAtoms()
	for _, r := range rules {
		atoms = append(atoms, r)
	}
	return hocl.NewSolution(atoms...)
}

// LocalSolution builds the task's agent-local solution (§IV-A): the same
// attributes plus a NAME atom identifying the agent.
func (t TaskAttrs) LocalSolution(rules ...*hocl.Rule) *hocl.Solution {
	atoms := append([]hocl.Atom{hocl.Tuple{KeyNAME, hocl.Ident(t.Name)}}, t.attrAtoms()...)
	for _, r := range rules {
		atoms = append(atoms, r)
	}
	return hocl.NewSolution(atoms...)
}

func (t TaskAttrs) attrAtoms() []hocl.Atom {
	in := make([]hocl.Atom, len(t.In))
	for i, a := range t.In {
		in[i] = a.Clone()
	}
	return []hocl.Atom{
		hocl.Tuple{KeySRC, identSolution(t.Src)},
		hocl.Tuple{KeyDST, identSolution(t.Dst)},
		hocl.Tuple{KeySRV, hocl.Str(t.Service)},
		hocl.Tuple{KeyIN, hocl.NewSolution(in...)},
		hocl.Tuple{KeyRES, hocl.NewSolution()},
	}
}

// TaskTuple wraps a task sub-solution under its name for the global
// multiset: Name:<...>.
func TaskTuple(name string, sub *hocl.Solution) hocl.Atom {
	return hocl.Tuple{hocl.Ident(name), sub}
}
