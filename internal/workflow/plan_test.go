package workflow

import (
	"bytes"
	"reflect"
	"testing"
)

func adaptedDiamond(h, v int) *Definition {
	spec := DefaultDiamondSpec(h, v, false)
	return WithBodyReplacement(Diamond(spec), spec, false, "workalt")
}

func mustJSON(t *testing.T, def *Definition) []byte {
	t.Helper()
	data, err := def.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPlanCacheKeepsLastPlan: equal bytes hit one plan whose templates
// are built once; the plan decodes its own copy of the definition, so
// an edit to the caller's definition reaches neither the plan nor a
// later hit. Other bytes get a plan of their own, which replaces the
// cached one.
func TestPlanCacheKeepsLastPlan(t *testing.T) {
	var c PlanCache
	def := adaptedDiamond(3, 3)
	data := mustJSON(t, def)
	p, err := c.Plan(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Def() == def || !reflect.DeepEqual(p.Def(), def) {
		t.Fatal("the plan's definition is not a copy equal to the caller's")
	}
	specs, err := p.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := p.Specs(); &again[0] != &specs[0] {
		t.Error("Specs built the templates twice")
	}
	if q, _ := c.Plan(bytes.Clone(data)); q != p {
		t.Error("equal bytes missed the cache")
	}
	if !reflect.DeepEqual(p.Exits(), def.Exits()) || !reflect.DeepEqual(p.TaskIDs(), def.AllTaskIDs()) {
		t.Error("plan exits or task IDs differ from the definition's")
	}
	if !bytes.Equal(p.JSON(), data) {
		t.Error("plan JSON differs from the bytes it was compiled from")
	}

	def.Tasks[1].Service = "renamed"
	if p.Def().Tasks[1].Service == "renamed" {
		t.Fatal("an edit of the caller's definition reached the plan")
	}
	edited, err := c.Plan(mustJSON(t, def))
	if err != nil {
		t.Fatal(err)
	}
	if edited == p || edited.Def().Tasks[1].Service != "renamed" {
		t.Fatal("an edited definition hit the old plan")
	}
	if q, _ := c.Plan(data); q == p || q == edited {
		t.Error("the cache kept more than the last plan")
	}
}

// TestPlanCacheErrors: bytes that do not decode return an error and
// leave the cached plan in place; a definition that decodes but does
// not validate gets a plan whose Specs reports the error, every time.
func TestPlanCacheErrors(t *testing.T) {
	var c PlanCache
	p, err := c.Plan(mustJSON(t, adaptedDiamond(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`{`, `{"tasks":[],"extra":1}`} {
		if _, err := c.Plan([]byte(bad)); err == nil {
			t.Errorf("Plan(%s) succeeded", bad)
		}
	}
	if c.last != p {
		t.Error("a failed decode replaced the cached plan")
	}
	invalid, err := c.Plan([]byte(`{"tasks":[{"id":"t1","service":"s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := invalid.Specs(); err == nil {
			t.Fatal("Specs of an invalid definition succeeded")
		}
	}
}
