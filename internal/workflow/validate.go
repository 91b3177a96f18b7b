package workflow

import (
	"fmt"

	"ginflow/internal/hoclflow"
)

// Validate checks the structural integrity of the workflow:
//
//   - task IDs are unique, non-empty and valid HOCL symbols;
//   - every edge references an existing task;
//   - the DAG is acyclic and has at least one entry and one exit;
//   - every adaptation satisfies the paper's Fig. 9 validity rules:
//     the faulty sub-workflow has a single destination shared with the
//     replacement sub-workflow, the replacement communicates with no
//     other main task, faulty tasks are not workflow entries (their
//     replacement could never receive the original input), and the
//     faulty sets of distinct adaptations are disjoint (§III-C
//     "Generalisation");
//   - replacement task IDs do not collide with main tasks or with other
//     adaptations, and the replacement sub-graph is itself acyclic.
func (d *Definition) Validate() error {
	_, err := d.validate()
	return err
}

// validate is Validate returning the adaptation plans it derived, one
// per adaptation in declaration order: the only place they are derived.
func (d *Definition) validate() ([]AdaptationPlan, error) {
	if len(d.Tasks) == 0 {
		return nil, fmt.Errorf("workflow: no tasks")
	}
	byID := map[string]bool{}
	for _, t := range d.Tasks {
		if err := validateTaskID(t.ID, byID); err != nil {
			return nil, err
		}
		if t.Service == "" {
			return nil, fmt.Errorf("workflow: task %q has no service", t.ID)
		}
	}
	for _, t := range d.Tasks {
		seen := map[string]bool{}
		for _, dst := range t.Dst {
			if !byID[dst] {
				return nil, fmt.Errorf("workflow: task %q lists unknown destination %q", t.ID, dst)
			}
			if dst == t.ID {
				return nil, fmt.Errorf("workflow: task %q depends on itself", t.ID)
			}
			if seen[dst] {
				return nil, fmt.Errorf("workflow: task %q lists destination %q twice", t.ID, dst)
			}
			seen[dst] = true
		}
	}
	if _, err := d.TopoOrder(); err != nil {
		return nil, err
	}
	if len(d.Entries()) == 0 {
		return nil, fmt.Errorf("workflow: no entry task")
	}
	if len(d.Exits()) == 0 {
		return nil, fmt.Errorf("workflow: no exit task")
	}
	return d.validateAdaptations(byID)
}

func validateTaskID(id string, byID map[string]bool) error {
	if id == "" {
		return fmt.Errorf("workflow: empty task id")
	}
	if !hoclflow.ValidTaskName(id) {
		return fmt.Errorf("workflow: task id %q is not a valid HOCL symbol (must match [A-Z][A-Za-z0-9_']*)", id)
	}
	if byID[id] {
		return fmt.Errorf("workflow: duplicate task id %q", id)
	}
	byID[id] = true
	return nil
}

func (d *Definition) validateAdaptations(mainIDs map[string]bool) ([]AdaptationPlan, error) {
	entries := map[string]bool{}
	for _, e := range d.Entries() {
		entries[e] = true
	}
	claimed := map[string]string{} // faulty task -> adaptation id
	replIDs := map[string]bool{}
	adaptIDs := map[string]bool{}
	var plans []AdaptationPlan

	for i := range d.Adaptations {
		a := &d.Adaptations[i]
		if a.ID == "" {
			return nil, fmt.Errorf("workflow: adaptation %d has no id", i)
		}
		if adaptIDs[a.ID] {
			return nil, fmt.Errorf("workflow: duplicate adaptation id %q", a.ID)
		}
		adaptIDs[a.ID] = true
		if len(a.Faulty) == 0 {
			return nil, fmt.Errorf("workflow: adaptation %q has no faulty tasks", a.ID)
		}
		if len(a.Replacement) == 0 {
			return nil, fmt.Errorf("workflow: adaptation %q has no replacement tasks", a.ID)
		}
		for _, f := range a.Faulty {
			if !mainIDs[f] {
				return nil, fmt.Errorf("workflow: adaptation %q names unknown faulty task %q", a.ID, f)
			}
			if entries[f] {
				return nil, fmt.Errorf("workflow: adaptation %q: faulty task %q is a workflow entry; its replacement could never receive the workflow input", a.ID, f)
			}
			if prev, dup := claimed[f]; dup {
				return nil, fmt.Errorf("workflow: adaptations %q and %q overlap on task %q (faulty sets must be disjoint, §III-C)", prev, a.ID, f)
			}
			claimed[f] = a.ID
		}
		for _, r := range a.Replacement {
			if !hoclflow.ValidTaskName(r.ID) {
				return nil, fmt.Errorf("workflow: replacement task id %q is not a valid HOCL symbol", r.ID)
			}
			if mainIDs[r.ID] {
				return nil, fmt.Errorf("workflow: replacement task %q collides with a main task", r.ID)
			}
			if replIDs[r.ID] {
				return nil, fmt.Errorf("workflow: replacement task %q defined twice", r.ID)
			}
			replIDs[r.ID] = true
			if r.Service == "" {
				return nil, fmt.Errorf("workflow: replacement task %q has no service", r.ID)
			}
		}
		// plan() enforces acyclicity and the Fig. 9 destination rules.
		p, err := a.plan(d)
		if err != nil {
			return nil, fmt.Errorf("workflow: %w", err)
		}
		plans = append(plans, *p)
	}
	return plans, nil
}

// replacementAcyclic topologically sorts the replacement-internal edges
// of dstOf, the adaptation's normalised wiring.
func replacementAcyclic(a *Adaptation, dstOf map[string][]string) error {
	ids := map[string]bool{}
	for _, r := range a.Replacement {
		ids[r.ID] = true
	}
	indeg := map[string]int{}
	adj := map[string][]string{}
	for _, r := range a.Replacement {
		if _, ok := indeg[r.ID]; !ok {
			indeg[r.ID] = 0
		}
		for _, dst := range dstOf[r.ID] {
			if !ids[dst] {
				continue
			}
			adj[r.ID] = append(adj[r.ID], dst)
			indeg[dst]++
		}
	}
	var ready []string
	for id, n := range indeg {
		if n == 0 {
			ready = append(ready, id)
		}
	}
	seen := 0
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		seen++
		for _, dst := range adj[id] {
			indeg[dst]--
			if indeg[dst] == 0 {
				ready = append(ready, dst)
			}
		}
	}
	if seen != len(indeg) {
		return fmt.Errorf("adaptation %q: replacement sub-workflow has a cycle", a.ID)
	}
	return nil
}
