package hoclflow

import (
	"ginflow/internal/hocl"
)

// Status is the observable execution state of a task, derived from its
// (sub-)solution. It mirrors the paper's Fig. 1 agent states.
type Status int

const (
	// StatusIdle: dependencies outstanding, service not yet invoked.
	StatusIdle Status = iota
	// StatusReady: dependencies satisfied but the service has not
	// produced a result yet (transient: gw_setup fired, gw_call pending).
	StatusReady
	// StatusCompleted: the service produced a non-error result.
	StatusCompleted
	// StatusFailed: the service produced ERROR (adaptation may clear it).
	StatusFailed
)

var statusNames = [...]string{
	StatusIdle:      "idle",
	StatusReady:     "ready",
	StatusCompleted: "completed",
	StatusFailed:    "failed",
}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "unknown"
}

// StatusOf derives the task status from its sub-solution.
func StatusOf(sol *hocl.Solution) Status {
	res := Results(sol)
	switch {
	case containsError(res):
		return StatusFailed
	case len(res) > 0:
		return StatusCompleted
	}
	if src, idx := sol.FindTuple(KeySRC); idx >= 0 {
		if s, ok := src[1].(*hocl.Solution); ok && s.Len() == 0 {
			return StatusReady
		}
	}
	return StatusIdle
}

// Results returns the atoms currently held in the task's RES solution
// (nil when RES is absent or empty).
func Results(sol *hocl.Solution) []hocl.Atom {
	res, idx := sol.FindTuple(KeyRES)
	if idx < 0 || len(res) != 2 {
		return nil
	}
	rs, ok := res[1].(*hocl.Solution)
	if !ok {
		return nil
	}
	return rs.Atoms()
}

func containsError(atoms []hocl.Atom) bool {
	for _, a := range atoms {
		if a.Equal(AtomERROR) {
			return true
		}
	}
	return false
}

// PendingSources returns the task names still expected in SRC.
func PendingSources(sol *hocl.Solution) []string {
	return identNames(sol, KeySRC)
}

func identNames(sol *hocl.Solution, key hocl.Ident) []string {
	tp, idx := sol.FindTuple(key)
	if idx < 0 || len(tp) != 2 {
		return nil
	}
	inner, ok := tp[1].(*hocl.Solution)
	if !ok {
		return nil
	}
	var names []string
	for _, a := range inner.Atoms() {
		if id, ok := a.(hocl.Ident); ok {
			names = append(names, string(id))
		}
	}
	return names
}

// FindTaskSub locates a task's sub-solution inside a centralized global
// multiset (an element Name:<...>).
func FindTaskSub(global *hocl.Solution, name string) *hocl.Solution {
	for _, a := range global.Atoms() {
		tp, ok := a.(hocl.Tuple)
		if !ok || len(tp) != 2 {
			continue
		}
		if !tp[0].Equal(hocl.Ident(name)) {
			continue
		}
		if sub, ok := tp[1].(*hocl.Solution); ok {
			return sub
		}
	}
	return nil
}
