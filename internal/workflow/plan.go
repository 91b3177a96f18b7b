package workflow

import (
	"bytes"
	"sync"
)

// Plan is a definition compiled once: the definition decoded from its
// JSON (the plan's own copy), its adaptation plans and agent-spec
// templates, its exit and task-ID lists and the JSON itself.
// Everything a plan hands out is shared by every session built from it
// and is read-only: the specs' local solutions are copied before an
// edit (agent.New snapshots the shell, and crash recovery copies the
// spec slice and every shell first), and rules, generated functions,
// trigger lists and adaptation plans are never edited.
type Plan struct {
	def   *Definition
	json  []byte
	exits []string
	ids   []string

	buildOnce   sync.Once
	adaptations []AdaptationPlan
	specs       []AgentSpec
	buildErr    error
}

// Def returns the plan's definition. The caller must not edit it.
func (p *Plan) Def() *Definition { return p.def }

// JSON returns the JSON the plan was compiled from. The caller must not
// edit it.
func (p *Plan) JSON() []byte { return p.json }

// Exits returns the definition's exit tasks (Definition.Exits).
func (p *Plan) Exits() []string { return p.exits }

// TaskIDs returns the main and replacement task IDs
// (Definition.AllTaskIDs).
func (p *Plan) TaskIDs() []string { return p.ids }

// Specs returns the agent-spec templates (Definition.TranslateAgents),
// built on the first call: validation errors surface there, and are
// returned again by every later call.
func (p *Plan) Specs() ([]AgentSpec, error) {
	p.build()
	return p.specs, p.buildErr
}

// Adaptations returns the adaptation plans the templates were built
// from, one per adaptation in declaration order; nil when Specs reports
// an error.
func (p *Plan) Adaptations() []AdaptationPlan {
	p.build()
	return p.adaptations
}

// build validates the definition and translates it from the adaptation
// plans validation derived, once.
func (p *Plan) build() {
	p.buildOnce.Do(func() {
		p.adaptations, p.buildErr = p.def.validate()
		if p.buildErr == nil {
			p.specs = p.def.agentSpecs(p.adaptations)
		}
	})
}

// PlanCache keeps the plan of the last workflow it was asked for, keyed
// by the workflow's JSON and compared byte for byte. Every workload
// that repeats a definition repeats it back to back, so one plan is
// what the cache needs to keep. It is safe for concurrent use; the zero
// value is ready.
type PlanCache struct {
	mu   sync.Mutex
	last *Plan
}

// Plan returns the plan of the definition data encodes: the cached one
// when data equals its JSON, else a new one decoded from data, which
// replaces it. Decoding does not validate: a plan of an invalid
// definition reports the error from Specs. The plan keeps data; the
// caller must not edit it afterwards.
func (c *PlanCache) Plan(data []byte) (*Plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last != nil && bytes.Equal(c.last.json, data) {
		return c.last, nil
	}
	def, err := decodeJSON(data)
	if err != nil {
		return nil, err
	}
	c.last = &Plan{def: def, json: data, exits: def.Exits(), ids: def.AllTaskIDs()}
	return c.last, nil
}
