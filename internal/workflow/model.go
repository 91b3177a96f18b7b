// Package workflow defines GinFlow's user-facing workflow model: a DAG of
// tasks bound to services, optional adaptation specifications (alternate
// sub-workflows triggered by run-time failures, paper §III-C), a JSON
// representation (§IV-D), structural validation including the paper's
// Fig. 9 adaptation-validity rules, and the translation to HOCL solutions
// executed by the centralized interpreter or the decentralised agents.
package workflow

import (
	"fmt"
	"sort"

	"ginflow/internal/hoclflow"
)

// Task is a node of the workflow DAG: an abstract function implemented by
// a named service (paper §III-B). Edges are declared on the producing
// side (Dst), as in the DAG view of Fig. 2; SRC sets are derived.
type Task struct {
	// ID names the task. It must parse as an HOCL symbol: leading
	// capital, then letters/digits/underscore/prime (e.g. T1, T2',
	// MPROJECT_17).
	ID string `json:"id"`
	// Service is the name of the service invoked for this task.
	Service string `json:"service"`
	// In holds initial input values, combined with received results to
	// form the invocation parameter list (paper footnote 4).
	In []string `json:"in,omitempty"`
	// Dst lists downstream task IDs that receive this task's result.
	Dst []string `json:"dst,omitempty"`
}

// ReplacementTask is a node of an adaptation's replacement sub-workflow.
// Unlike main tasks it declares Src explicitly, because its inputs can
// come from main-workflow source tasks that do not know about it until
// adaptation rewires them (ADDDST, paper Fig. 6).
type ReplacementTask struct {
	ID      string   `json:"id"`
	Service string   `json:"service"`
	In      []string `json:"in,omitempty"`
	Src     []string `json:"src,omitempty"`
	Dst     []string `json:"dst,omitempty"`
}

// Adaptation specifies that, should any task of Faulty produce ERROR at
// run time, the sub-workflow Faulty is to be replaced on-the-fly by
// Replacement (paper §III-C). Replacement tasks may take inputs from
// main-workflow tasks (the "sources", which re-send their results) and
// must all funnel into the same single destination as the faulty
// sub-workflow (the Fig. 9 validity requirement).
type Adaptation struct {
	ID          string            `json:"id"`
	Faulty      []string          `json:"faulty"`
	Replacement []ReplacementTask `json:"replacement"`
}

// Definition is a complete workflow: the DAG plus adaptation specs.
type Definition struct {
	Name        string       `json:"name,omitempty"`
	Tasks       []Task       `json:"tasks"`
	Adaptations []Adaptation `json:"adaptations,omitempty"`
}

// TaskByID returns the main task with the given id.
func (d *Definition) TaskByID(id string) (*Task, bool) {
	for i := range d.Tasks {
		if d.Tasks[i].ID == id {
			return &d.Tasks[i], true
		}
	}
	return nil, false
}

// SrcOf returns the derived incoming dependencies of main task id, in
// deterministic (sorted) order.
func (d *Definition) SrcOf(id string) []string {
	var src []string
	for _, t := range d.Tasks {
		for _, dst := range t.Dst {
			if dst == id {
				src = append(src, t.ID)
			}
		}
	}
	sort.Strings(src)
	return src
}

// Entries returns tasks with no incoming dependencies (workflow inputs).
func (d *Definition) Entries() []string {
	hasSrc := map[string]bool{}
	for _, t := range d.Tasks {
		for _, dst := range t.Dst {
			hasSrc[dst] = true
		}
	}
	var out []string
	for _, t := range d.Tasks {
		if !hasSrc[t.ID] {
			out = append(out, t.ID)
		}
	}
	return out
}

// Exits returns tasks with no outgoing dependencies (workflow outputs).
func (d *Definition) Exits() []string {
	var out []string
	for _, t := range d.Tasks {
		if len(t.Dst) == 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

// TaskCount returns the number of main tasks.
func (d *Definition) TaskCount() int { return len(d.Tasks) }

// AllTaskIDs returns main and replacement task IDs (replacement agents
// are deployed alongside main agents, idle until adaptation).
func (d *Definition) AllTaskIDs() []string {
	ids := make([]string, 0, len(d.Tasks))
	for _, t := range d.Tasks {
		ids = append(ids, t.ID)
	}
	for _, a := range d.Adaptations {
		for _, r := range a.Replacement {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// TopoOrder returns main task IDs in a topological order, or an error if
// the graph has a cycle. The order is deterministic: ties break by ID.
func (d *Definition) TopoOrder() ([]string, error) {
	indeg := map[string]int{}
	adj := map[string][]string{}
	for _, t := range d.Tasks {
		if _, ok := indeg[t.ID]; !ok {
			indeg[t.ID] = 0
		}
		for _, dst := range t.Dst {
			adj[t.ID] = append(adj[t.ID], dst)
			indeg[dst]++
		}
	}
	var ready []string
	for id, n := range indeg {
		if n == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		var unlocked []string
		for _, dst := range adj[id] {
			indeg[dst]--
			if indeg[dst] == 0 {
				unlocked = append(unlocked, dst)
			}
		}
		sort.Strings(unlocked)
		ready = append(ready, unlocked...)
		sort.Strings(ready)
	}
	if len(order) != len(indeg) {
		return nil, fmt.Errorf("workflow: dependency cycle detected")
	}
	return order, nil
}

// EdgeCount returns the number of edges in the main DAG.
func (d *Definition) EdgeCount() int {
	n := 0
	for _, t := range d.Tasks {
		n += len(t.Dst)
	}
	return n
}

// AdaptationPlan is the derived wiring of one adaptation, computed once
// per validation by Adaptation.plan. Translation generates the
// adaptation's rules from it, and crash recovery (internal/core) reads
// it to tell which replacement tasks are live and how a triggered
// adaptation rewires the DAG.
type AdaptationPlan struct {
	// ID is the adaptation's identifier (TRIGGER markers carry it).
	ID string
	// Faulty lists the faulty tasks, each hosting a trigger.
	Faulty []string
	// Sources are the main tasks outside the faulty sub-workflow that
	// feed the replacement and re-send their results on adaptation
	// (add_dst hosts).
	Sources []string
	// AddDst maps each source to the replacement tasks it serves,
	// sorted.
	AddDst map[string][]string
	// Destination is the unique main task receiving the replaced
	// sub-workflow's output (the mv_src host).
	Destination string
	// FaultyFinals are the faulty tasks wired into Destination's SRC
	// before adaptation (mv_src removes them).
	FaultyFinals []string
	// ReplacementFinals are the replacement tasks wired into
	// Destination's SRC by mv_src.
	ReplacementFinals []string
	// Replacement holds every replacement task's attributes with its
	// normalised Src and Dst (wiring).
	Replacement []hoclflow.TaskAttrs
}

// plan computes the adaptation wiring. It assumes Validate-level checks
// of task existence have passed; structural errors (a cyclic
// replacement, the Fig. 9 destination rules) are still reported.
func (a *Adaptation) plan(d *Definition) (*AdaptationPlan, error) {
	faulty := map[string]bool{}
	for _, f := range a.Faulty {
		faulty[f] = true
	}
	repl := map[string]bool{}
	for _, r := range a.Replacement {
		repl[r.ID] = true
	}

	srcOf, dstOf := a.wiring()
	if err := replacementAcyclic(a, dstOf); err != nil {
		return nil, err
	}
	p := &AdaptationPlan{ID: a.ID, Faulty: a.Faulty, AddDst: map[string][]string{}}

	// Destination: the unique non-faulty main task that faulty tasks
	// point to (Fig. 9(c): multiple outgoing destinations are invalid).
	destSet := map[string]bool{}
	for _, fid := range a.Faulty {
		t, ok := d.TaskByID(fid)
		if !ok {
			return nil, fmt.Errorf("adaptation %q: faulty task %q not found", a.ID, fid)
		}
		for _, dst := range t.Dst {
			if faulty[dst] {
				continue
			}
			destSet[dst] = true
			if !containsStr(p.FaultyFinals, fid) {
				p.FaultyFinals = append(p.FaultyFinals, fid)
			}
		}
	}
	if len(destSet) != 1 {
		return nil, fmt.Errorf("adaptation %q: faulty sub-workflow must have exactly one destination, found %d (paper Fig. 9)", a.ID, len(destSet))
	}
	for dst := range destSet {
		p.Destination = dst
	}

	// Replacement wiring: sources re-send, finals feed the destination.
	for _, r := range a.Replacement {
		for _, src := range srcOf[r.ID] {
			if repl[src] {
				continue // internal replacement edge
			}
			if faulty[src] {
				return nil, fmt.Errorf("adaptation %q: replacement task %q cannot take input from faulty task %q", a.ID, r.ID, src)
			}
			if _, ok := d.TaskByID(src); !ok {
				return nil, fmt.Errorf("adaptation %q: replacement task %q references unknown source %q", a.ID, r.ID, src)
			}
			if !containsStr(p.Sources, src) {
				p.Sources = append(p.Sources, src)
			}
			p.AddDst[src] = append(p.AddDst[src], r.ID)
		}
		for _, dst := range dstOf[r.ID] {
			if repl[dst] {
				continue
			}
			// Fig. 9(d): the replacement must not communicate with any
			// main task other than the single destination.
			if dst != p.Destination {
				return nil, fmt.Errorf("adaptation %q: replacement task %q sends to %q, but the only allowed destination is %q (paper Fig. 9)", a.ID, r.ID, dst, p.Destination)
			}
			if !containsStr(p.ReplacementFinals, r.ID) {
				p.ReplacementFinals = append(p.ReplacementFinals, r.ID)
			}
		}
		p.Replacement = append(p.Replacement, hoclflow.TaskAttrs{
			Name:    r.ID,
			Src:     srcOf[r.ID],
			Dst:     dstOf[r.ID],
			Service: r.Service,
			In:      strAtoms(r.In),
		})
	}
	if len(p.ReplacementFinals) == 0 {
		return nil, fmt.Errorf("adaptation %q: replacement sub-workflow never reaches destination %q", a.ID, p.Destination)
	}
	sort.Strings(p.Sources)
	sort.Strings(p.FaultyFinals)
	sort.Strings(p.ReplacementFinals)
	for _, dsts := range p.AddDst {
		sort.Strings(dsts)
	}
	return p, nil
}

// wiring normalises the replacement sub-workflow's edges: an internal
// edge may be declared on either endpoint (r1.Dst or r2.Src); external
// references (main-workflow sources in Src, the destination in Dst) stay
// where they were declared. The returned maps give the effective Src and
// Dst sets per replacement task, deduplicated and sorted.
func (a *Adaptation) wiring() (srcOf, dstOf map[string][]string) {
	srcOf = map[string][]string{}
	dstOf = map[string][]string{}
	internal := map[string]bool{}
	for _, r := range a.Replacement {
		internal[r.ID] = true
	}
	addEdge := func(m map[string][]string, key, val string) {
		if !containsStr(m[key], val) {
			m[key] = append(m[key], val)
		}
	}
	for _, r := range a.Replacement {
		for _, s := range r.Src {
			addEdge(srcOf, r.ID, s)
			if internal[s] {
				addEdge(dstOf, s, r.ID)
			}
		}
		for _, dst := range r.Dst {
			addEdge(dstOf, r.ID, dst)
			if internal[dst] {
				addEdge(srcOf, dst, r.ID)
			}
		}
	}
	for _, m := range []map[string][]string{srcOf, dstOf} {
		for k := range m {
			sort.Strings(m[k])
		}
	}
	return srcOf, dstOf
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
