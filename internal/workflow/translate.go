package workflow

import (
	"sort"

	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
)

// CentralProgram is the HOCL translation of a workflow for centralized
// execution: one global multiset reduced by a single interpreter, as in
// the paper's §III. Funcs holds the generated external functions
// (mv_src rewrites) that must be registered on the interpreter alongside
// invoke().
type CentralProgram struct {
	Global *hocl.Solution
	Funcs  map[string]hocl.Func
}

// TriggerSpec describes one adaptation trigger owned by a (potentially
// faulty) task's agent in decentralised mode: on ERROR, the agent calls
// FuncName, which must deliver ADAPT:"AdaptationID" to every agent in
// Notify and record TRIGGER:"AdaptationID" in the shared space (§IV-A).
type TriggerSpec struct {
	AdaptationID string
	FuncName     string
	Notify       []string
}

// AgentSpec is the deployment unit for one service agent: the task
// metadata, its agent-local HOCL solution (rules injected), generated
// external functions, and the adaptation triggers it owns.
type AgentSpec struct {
	Task     hoclflow.TaskAttrs
	Local    *hocl.Solution
	Funcs    map[string]hocl.Func
	Triggers []TriggerSpec
}

// rolePlan aggregates, per task, the adaptation artifacts it hosts.
type rolePlan struct {
	rules    []*hocl.Rule
	funcs    map[string]hocl.Func
	triggers []TriggerSpec
}

func newRolePlan() *rolePlan { return &rolePlan{funcs: map[string]hocl.Func{}} }

// adaptationRoles distributes each adaptation's generated rules to the
// tasks that host them: add_dst to sources, mv_src (+ rewrite function)
// to the destination, triggers to every faulty task. The central flag
// selects the centralized trigger (a global rule, returned separately)
// or the decentralised local trigger.
func adaptationRoles(plans []AdaptationPlan, central bool) (map[string]*rolePlan, []*hocl.Rule) {
	roles := map[string]*rolePlan{}
	role := func(id string) *rolePlan {
		if roles[id] == nil {
			roles[id] = newRolePlan()
		}
		return roles[id]
	}
	var globalRules []*hocl.Rule

	for i := range plans {
		p := &plans[i]
		for _, src := range p.Sources {
			role(src).rules = append(role(src).rules, hoclflow.AddDstRule(p.ID, src, p.AddDst[src]))
		}
		dst := role(p.Destination)
		dst.rules = append(dst.rules, hoclflow.MvSrcRule(p.ID))
		dst.funcs[hoclflow.MvSrcFuncName(p.ID)] = hoclflow.MvSrcFunc(p.FaultyFinals, p.ReplacementFinals)

		notify := append(append([]string(nil), p.Sources...), p.Destination)
		for _, f := range p.Faulty {
			if central {
				globalRules = append(globalRules,
					hoclflow.CentralTriggerRule(p.ID, f, p.Sources, p.Destination))
			} else {
				role(f).rules = append(role(f).rules, hoclflow.LocalTriggerRule(p.ID, f))
				role(f).triggers = append(role(f).triggers, TriggerSpec{
					AdaptationID: p.ID,
					FuncName:     hoclflow.TriggerFuncName(p.ID),
					Notify:       notify,
				})
			}
		}
	}
	return roles, globalRules
}

// taskAttrs builds the hoclflow attributes for every deployable task:
// main tasks (Src derived from the DAG) and the replacement tasks of
// every adaptation plan.
func (d *Definition) taskAttrs(plans []AdaptationPlan) []hoclflow.TaskAttrs {
	// One pass over the edges; SrcOf per task would rescan them all.
	mainSrc := make(map[string][]string, len(d.Tasks))
	for _, t := range d.Tasks {
		for _, dst := range t.Dst {
			mainSrc[dst] = append(mainSrc[dst], t.ID)
		}
	}
	out := make([]hoclflow.TaskAttrs, 0, len(d.Tasks))
	for _, t := range d.Tasks {
		src := mainSrc[t.ID]
		sort.Strings(src)
		out = append(out, hoclflow.TaskAttrs{
			Name:    t.ID,
			Src:     src,
			Dst:     append([]string(nil), t.Dst...),
			Service: t.Service,
			In:      strAtoms(t.In),
		})
	}
	for _, p := range plans {
		out = append(out, p.Replacement...)
	}
	return out
}

func strAtoms(ss []string) []hocl.Atom {
	out := make([]hocl.Atom, len(ss))
	for i, s := range ss {
		out[i] = hocl.Str(s)
	}
	return out
}

// TranslateCentral produces the centralized HOCL program: the Fig. 3
// global multiset with the Fig. 4 generic rules and the Fig. 7
// adaptation rules injected ("the phase of rules injection ... takes
// place in a transparent way before the actual execution", §IV-D).
func (d *Definition) TranslateCentral() (*CentralProgram, error) {
	plans, err := d.validate()
	if err != nil {
		return nil, err
	}
	roles, globalRules := adaptationRoles(plans, true)
	global := hocl.NewSolution(hoclflow.GwPass())
	for _, r := range globalRules {
		global.Add(r)
	}
	prog := &CentralProgram{Global: global, Funcs: map[string]hocl.Func{}}
	for _, attrs := range d.taskAttrs(plans) {
		rules := []*hocl.Rule{hoclflow.GwSetup(), hoclflow.GwCall()}
		if rp := roles[attrs.Name]; rp != nil {
			rules = append(rules, rp.rules...)
			for name, fn := range rp.funcs {
				prog.Funcs[name] = fn
			}
		}
		global.Add(hoclflow.TaskTuple(attrs.Name, attrs.SubSolution(rules...)))
	}
	return prog, nil
}

// TranslateAgents produces one AgentSpec per deployable task (main and
// replacement) for decentralised execution: local solutions carry the
// decentralised generic rules (gw_setup, gw_call, gw_send, gw_recv,
// gw_gc) plus the adaptation rules for the roles the task plays.
func (d *Definition) TranslateAgents() ([]AgentSpec, error) {
	plans, err := d.validate()
	if err != nil {
		return nil, err
	}
	return d.agentSpecs(plans), nil
}

// agentSpecs translates a validated definition, given its adaptation
// plans, into TranslateAgents' specs.
func (d *Definition) agentSpecs(plans []AdaptationPlan) []AgentSpec {
	roles, _ := adaptationRoles(plans, false)
	var specs []AgentSpec
	for _, attrs := range d.taskAttrs(plans) {
		rules := []*hocl.Rule{
			hoclflow.GwSetup(), hoclflow.GwCall(),
			hoclflow.GwSend(), hoclflow.GwRecv(), hoclflow.GwGc(),
		}
		spec := AgentSpec{Task: attrs, Funcs: map[string]hocl.Func{}}
		if rp := roles[attrs.Name]; rp != nil {
			rules = append(rules, rp.rules...)
			for name, fn := range rp.funcs {
				spec.Funcs[name] = fn
			}
			spec.Triggers = rp.triggers
		}
		spec.Local = attrs.LocalSolution(rules...)
		specs = append(specs, spec)
	}
	return specs
}
