package workflow

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"ginflow/internal/hocl"
)

// twoAdaptations is a definition with two disjoint adaptations: a1
// replaces one branch of an upper diamond, Swap-B the whole branch pair
// of a lower one with a three-task sub-workflow whose internal edges are
// declared on both endpoints and which takes inputs from two sources.
func twoAdaptations() *Definition {
	return &Definition{
		Name: "two-adaptations",
		Tasks: []Task{
			{ID: "T1", Service: "s1", In: []string{"input"}, Dst: []string{"T2", "T3"}},
			{ID: "T2", Service: "s2", Dst: []string{"T4"}},
			{ID: "T3", Service: "s3", Dst: []string{"T4"}},
			{ID: "T4", Service: "s4", Dst: []string{"T5", "T6"}},
			{ID: "T5", Service: "s5", Dst: []string{"T7"}},
			{ID: "T6", Service: "s6", Dst: []string{"T7"}},
			{ID: "T7", Service: "s7"},
		},
		Adaptations: []Adaptation{
			{ID: "a1", Faulty: []string{"T2"}, Replacement: []ReplacementTask{
				{ID: "T2'", Service: "s2alt", Src: []string{"T1"}, Dst: []string{"T4"}},
			}},
			{ID: "Swap-B", Faulty: []string{"T6", "T5"}, Replacement: []ReplacementTask{
				{ID: "R5", Service: "r5", In: []string{"k"}, Src: []string{"T4"}, Dst: []string{"R6"}},
				{ID: "R6", Service: "r6", Src: []string{"T1"}, Dst: []string{"T7"}},
				{ID: "R7", Service: "r7", Src: []string{"R5", "T4"}, Dst: []string{"T7"}},
			}},
		},
	}
}

// renderSpecs renders what translation generates for def: per agent
// spec its task attributes, every rule's name and body, each generated
// function applied to the task's own SRC set, and each trigger; then
// the centralized program's global solution.
func renderSpecs(t *testing.T, def *Definition) string {
	t.Helper()
	specs, err := def.TranslateAgents()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", def.Name)
	for _, s := range specs {
		fmt.Fprintf(&b, "task %s src=%v dst=%v srv=%s in=%v\n",
			s.Task.Name, s.Task.Src, s.Task.Dst, s.Task.Service, s.Task.In)
		for _, r := range s.Local.Rules() {
			fmt.Fprintf(&b, "  rule %s = %s\n", r.Name, r.Body())
		}
		var src []hocl.Atom
		for _, n := range s.Task.Src {
			src = append(src, hocl.Ident(n))
		}
		for _, name := range slices.Sorted(maps.Keys(s.Funcs)) {
			out, err := s.Funcs[name](src)
			fmt.Fprintf(&b, "  func %s(%v) = %v %v\n", name, src, out, err)
		}
		for _, tr := range s.Triggers {
			fmt.Fprintf(&b, "  trigger %s %s notify=%v\n", tr.AdaptationID, tr.FuncName, tr.Notify)
		}
	}
	prog, err := def.TranslateCentral()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "central %s\n", prog.Global)
	return b.String()
}

// TestTranslationGolden pins the generated agent specs and centralized
// program of the §V-B adapted diamond and of a definition with two
// disjoint adaptations to testdata/specs.golden, byte for byte. A
// change that moves a rule, a function's result or a trigger shows up
// as the first differing line.
func TestTranslationGolden(t *testing.T) {
	got := renderSpecs(t, adaptedDiamond(2, 2)) + renderSpecs(t, twoAdaptations())
	want, err := os.ReadFile("testdata/specs.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl, wl)
		}
	}
}
