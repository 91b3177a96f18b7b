package workflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
)

// randomDAG builds a random acyclic workflow: tasks T1..Tn with forward
// edges only (i -> j implies i < j), at least one entry input and a
// guaranteed path to an exit.
func randomDAG(r *rand.Rand, n int) *Definition {
	if n < 2 {
		n = 2
	}
	d := &Definition{Name: fmt.Sprintf("random-%d", n)}
	for i := 1; i <= n; i++ {
		t := Task{ID: fmt.Sprintf("T%d", i), Service: "svc"}
		if i == 1 {
			t.In = []string{"input"}
		}
		d.Tasks = append(d.Tasks, t)
	}
	// Forward edges: every non-last task points to at least one later
	// task; extra random edges sprinkle fan-out.
	for i := 0; i < n-1; i++ {
		picked := map[int]bool{}
		edges := 1 + r.Intn(3)
		for e := 0; e < edges; e++ {
			j := i + 1 + r.Intn(n-i-1)
			if !picked[j] {
				picked[j] = true
				d.Tasks[i].Dst = append(d.Tasks[i].Dst, d.Tasks[j].ID)
			}
		}
	}
	// Orphan entries (tasks with no incoming edges beyond T1) are fine:
	// they just run immediately with empty input.
	return d
}

// Property: every random forward-edge DAG validates, translates, and
// runs to full completion on the centralized interpreter, with every
// service invoked exactly once.
func TestQuickRandomDAGsRunToCompletion(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(sizeRaw%12)
		d := randomDAG(r, n)
		if err := d.Validate(); err != nil {
			t.Logf("seed %d: validate: %v", seed, err)
			return false
		}
		prog, err := d.TranslateCentral()
		if err != nil {
			t.Logf("seed %d: translate: %v", seed, err)
			return false
		}
		e := hocl.NewEngine()
		invocations := map[string]int{}
		e.Funcs.Register(hoclflow.FnInvoke, func(args []hocl.Atom) ([]hocl.Atom, error) {
			invocations[args[0].String()]++
			return []hocl.Atom{hocl.Str("ok")}, nil
		})
		if err := e.Reduce(prog.Global); err != nil {
			t.Logf("seed %d: reduce: %v", seed, err)
			return false
		}
		for _, task := range d.Tasks {
			sub := hoclflow.FindTaskSub(prog.Global, task.ID)
			if sub == nil {
				t.Logf("seed %d: task %s missing", seed, task.ID)
				return false
			}
			if got := hoclflow.StatusOf(sub); got != hoclflow.StatusCompleted {
				t.Logf("seed %d: task %s = %v\n%s", seed, task.ID, got, hocl.Pretty(prog.Global))
				return false
			}
		}
		total := 0
		for _, c := range invocations {
			total += c
		}
		if total != n {
			t.Logf("seed %d: %d invocations for %d tasks", seed, total, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the derived SRC sets are exactly the transpose of the
// declared DST sets, and taskAttrs' one-pass index yields the same SRC
// lists as a SrcOf scan per task.
func TestQuickSrcIsTransposeOfDst(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDAG(r, 2+int(sizeRaw%20))
		fwd := map[string]map[string]bool{}
		for _, task := range d.Tasks {
			for _, dst := range task.Dst {
				if fwd[dst] == nil {
					fwd[dst] = map[string]bool{}
				}
				fwd[dst][task.ID] = true
			}
		}
		attrs := d.taskAttrs(nil)
		for i, task := range d.Tasks {
			src := d.SrcOf(task.ID)
			if attrs[i].Name != task.ID || !reflect.DeepEqual(attrs[i].Src, src) {
				t.Logf("seed %d: taskAttrs[%d] = %s SRC %v, SrcOf(%s) = %v", seed, i, attrs[i].Name, attrs[i].Src, task.ID, src)
				return false
			}
			if len(src) != len(fwd[task.ID]) {
				return false
			}
			for _, s := range src {
				if !fwd[task.ID][s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: topological order exists for every random DAG and respects
// every edge.
func TestQuickTopoOrderRespectsEdges(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDAG(r, 2+int(sizeRaw%20))
		order, err := d.TopoOrder()
		if err != nil {
			return false
		}
		pos := map[string]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, task := range d.Tasks {
			for _, dst := range task.Dst {
				if pos[task.ID] >= pos[dst] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: JSON round-trips preserve the workflow structure for random
// DAGs.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDAG(r, 2+int(sizeRaw%15))
		data, err := d.JSON()
		if err != nil {
			return false
		}
		back, err := FromJSON(data)
		if err != nil {
			return false
		}
		if len(back.Tasks) != len(d.Tasks) {
			return false
		}
		for i := range d.Tasks {
			if back.Tasks[i].ID != d.Tasks[i].ID ||
				len(back.Tasks[i].Dst) != len(d.Tasks[i].Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
