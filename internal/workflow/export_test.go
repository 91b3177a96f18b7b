package workflow

import (
	"strings"
	"testing"

	"ginflow/internal/hocl"
)

func TestDOTExport(t *testing.T) {
	d := paperAdaptiveDiamond()
	dot := d.DOT()
	for _, frag := range []string{
		"digraph",
		`"T1" -> "T2"`,
		`"T2" -> "T4"`,
		`cluster_a1`,
		`"T1" -> "T2'" [style=dashed]`,
		`"T2'" -> "T4" [style=dashed]`,
		"s2alt",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

func TestDOTExportUnnamedWorkflow(t *testing.T) {
	d := paperDiamond()
	d.Name = ""
	if !strings.Contains(d.DOT(), `digraph "workflow"`) {
		t.Error("unnamed workflow needs a default graph name")
	}
}

func TestHOCLSourceIsParseable(t *testing.T) {
	d := paperAdaptiveDiamond()
	src, err := d.HOCLSource()
	if err != nil {
		t.Fatal(err)
	}
	// The exported source must parse back into a solution with one
	// sub-solution per task (main + replacement) and the global rules.
	sol, err := hocl.Parse(src)
	if err != nil {
		t.Fatalf("exported HOCL does not parse: %v\n%s", err, src)
	}
	tasks := 0
	for _, a := range sol.Atoms() {
		if tp, isTuple := a.(hocl.Tuple); isTuple && len(tp) == 2 {
			if _, isSub := tp[1].(*hocl.Solution); isSub {
				tasks++
			}
		}
	}
	if tasks != 5 { // T1..T4 + T2'
		t.Errorf("exported source has %d task sub-solutions, want 5", tasks)
	}
	for _, frag := range []string{"gw_pass", "gw_setup", "gw_call", "trigger_adapt", "add_dst", "mv_src"} {
		if !strings.Contains(src, frag) {
			t.Errorf("exported source missing rule %q", frag)
		}
	}
}

func TestHOCLSourceInvalidWorkflow(t *testing.T) {
	bad := &Definition{Tasks: []Task{{ID: "x", Service: "s"}}}
	if _, err := bad.HOCLSource(); err == nil {
		t.Error("invalid workflow exported")
	}
}
