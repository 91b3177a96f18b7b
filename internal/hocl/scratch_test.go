package hocl

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"
)

// TestReduceReleasesConsumedSolution: once Reduce returns, a
// sub-solution a rule consumed is garbage. Neither the engine, the
// scratch the reduction borrowed, nor the reduced solution's spare
// capacity and caches may keep it reachable: an agent's engine outlives
// every message its task consumes.
func TestReduceReleasesConsumedSolution(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{"replace-one IN:<x, *w> by RES:<x>", `<KEEP, RES:<"payload">>`},
		{"replace-one IN:<x, *w>, y by y", `<KEEP>`},
	} {
		take := MustParseRuleBody("take", tc.body, nil)
		e := NewEngine()
		sol := NewSolution(Tuple{Ident("IN"), NewSolution(Str("payload"), Int(7))}, Ident("KEEP"), take)
		weakIn := weak.Make(sol.At(0).(Tuple)[1].(*Solution))
		if err := e.Reduce(sol); err != nil {
			t.Fatal(err)
		}
		if got := sol.String(); got != tc.want {
			t.Fatalf("%s: reduced to %s, want %s", tc.body, got, tc.want)
		}
		runtime.GC()
		if weakIn.Value() != nil {
			t.Errorf("%s: the consumed IN solution is still reachable after Reduce returned", tc.body)
		}
		runtime.KeepAlive(e)
		runtime.KeepAlive(sol)
	}
}

// TestEnginesReduceConcurrently is the real-clock shape: many agents,
// each with its own engine and local solution, reduce at once and borrow
// scratches from the one pool. Each result must equal a sequential
// reduction under the same seed. Run under -race.
func TestEnginesReduceConcurrently(t *testing.T) {
	const (
		workers = 8
		rounds  = 20
	)
	program := func(i int) *Solution {
		rules := fmt.Sprintf(`
			let max = replace x, y by x if x >= y in
			let pick = replace-one IN:<v, *w>, OUT:<*o> by IN:<*w>, OUT:<noop(v), *o> in
			<IN:<%d, %d, %d, %d>, OUT:<>, <%d, %d, %d, max>, pick>`,
			i, i+1, i+2, i+3, i, 2*i, 3*i)
		sol, err := Parse(rules)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	reduce := func(i int, seed int64) (*Solution, error) {
		e := NewEngine()
		e.Rand = rand.New(rand.NewSource(seed))
		e.Funcs.Register("noop", func(args []Atom) ([]Atom, error) { return args, nil })
		sol := program(i)
		return sol, e.Reduce(sol)
	}
	want := make([]*Solution, workers)
	for i := range want {
		sol, err := reduce(i, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sol
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sol, err := reduce(i, int64(i))
				if err != nil {
					t.Error(err)
					return
				}
				if Fingerprint(sol) != Fingerprint(want[i]) {
					t.Errorf("worker %d round %d: %v, want %v", i, r, sol, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFuncsConcurrentLookup: a registry that nobody writes to any more
// may be read from any number of goroutines, the overlay's names and the
// built-ins alike. Run under -race.
func TestFuncsConcurrentLookup(t *testing.T) {
	f := NewFuncs()
	for _, name := range []string{"invoke", "send", "len"} {
		f.Register(name, func([]Atom) ([]Atom, error) { return nil, nil })
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				for _, name := range []string{"invoke", "send", "len", "list"} {
					if _, ok := f.Lookup(name); !ok {
						t.Errorf("lookup %q failed", name)
						return
					}
				}
				if _, ok := f.Lookup("absent"); ok {
					t.Error("lookup of an unregistered name succeeded")
					return
				}
			}
		}()
	}
	wg.Wait()
}
