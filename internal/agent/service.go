// Package agent implements GinFlow's service agents (SAs): the workers
// that jointly execute a workflow without a central engine (paper §IV-A).
// Each SA bundles (1) the service it wraps, (2) a local copy of its task
// sub-solution and (3) an HOCL interpreter that reduces the local
// solution every time molecules arrive. Completed results travel directly
// to the destination agents through the message broker, and every
// reduction's outcome is pushed back to the shared space.
//
// The package also implements the §IV-B resilience behaviour: an agent
// can crash (by fault injection) and a replacement incarnation rebuilds
// the lost state by replaying the agent's inbox from a log-backed broker,
// re-invoking its (idempotent) service along the way.
package agent

import (
	"fmt"
	"sync"

	"ginflow/internal/hocl"
)

// Service describes one invocable service: a modelled duration (the time
// the invocation occupies the agent) and an optional computation over the
// parameter list. The zero Compute echoes a deterministic output string.
type Service struct {
	// Name is the service identifier referenced by task SRV atoms.
	Name string
	// Duration is the modelled execution time in model seconds.
	Duration float64
	// Compute produces the result atom from the invocation parameters.
	// Returning an error yields the ERROR atom (a service-level failure,
	// the trigger of workflow adaptation, §III-C). Nil echoes
	// "out-<name>".
	Compute func(params []hocl.Atom) (hocl.Atom, error)
}

// Invoke executes the computation.
func (s *Service) Invoke(params []hocl.Atom) (hocl.Atom, error) {
	if s.Compute == nil {
		return hocl.Str("out-" + s.Name), nil
	}
	return s.Compute(params)
}

// Registry maps service names to implementations; it is safe for
// concurrent use. The zero value is empty and usable.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*Service
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: map[string]*Service{}} }

// Register adds (or replaces) a service.
func (r *Registry) Register(s *Service) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = map[string]*Service{}
	}
	r.m[s.Name] = s
}

// RegisterFunc is a convenience for fixed-duration computed services.
func (r *Registry) RegisterFunc(name string, duration float64, compute func(params []hocl.Atom) (hocl.Atom, error)) {
	r.Register(&Service{Name: name, Duration: duration, Compute: compute})
}

// RegisterNoop registers echo services with a fixed duration — the
// paper's diamond tasks "only simulate a simple script with a (very low)
// constant execution time" (§V).
func (r *Registry) RegisterNoop(duration float64, names ...string) {
	for _, n := range names {
		r.Register(&Service{Name: n, Duration: duration})
	}
}

// RegisterFailing registers a service that always produces ERROR — used
// to raise the execution exception in the adaptiveness experiments
// (§V-B).
func (r *Registry) RegisterFailing(name string, duration float64) {
	r.Register(&Service{
		Name: name, Duration: duration,
		Compute: func([]hocl.Atom) (hocl.Atom, error) {
			return nil, fmt.Errorf("service %s: injected execution exception", name)
		},
	})
}

// Lookup resolves a service by name.
func (r *Registry) Lookup(name string) (*Service, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.m[name]
	return s, ok
}

// Names returns the registered service names (unordered).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	return out
}
