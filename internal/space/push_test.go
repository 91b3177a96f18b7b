package space

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
)

// applyPayload feeds an encoder-produced wire payload to the space the
// way the broker would: as one structural message.
func applyPayload(s *Space, payload []hocl.Atom) {
	if payload == nil {
		return
	}
	s.ApplyMessage(mq.Message{Atoms: payload})
}

// fullSnapshotPayload builds an unversioned full-record payload for a
// state.
func fullSnapshotPayload(task string, atoms []hocl.Atom, inert bool) []hocl.Atom {
	sub := hocl.NewSolution(hocl.SnapshotAtoms(atoms)...)
	sub.SetInert(inert)
	return []hocl.Atom{hocl.Tuple{hocl.Ident(task), sub}}
}

// randomStatusState generates a mesh-task-shaped stripped status: the
// SRC/DST/SRV/IN/PAR/RES tuples of a diamond/mesh task sub-solution at a
// random point of its enactment, as produced by workflow translation and
// mutated by the gw_* rules.
func randomStatusState(rng *rand.Rand, fan int) []hocl.Atom {
	srcLeft := rng.Intn(fan + 1)
	src := make([]hocl.Atom, 0, srcLeft)
	for i := 0; i < srcLeft; i++ {
		src = append(src, hocl.Ident(fmt.Sprintf("S%d", i+1)))
	}
	in := make([]hocl.Atom, 0, fan-srcLeft)
	for i := srcLeft; i < fan; i++ {
		in = append(in, hocl.Str(fmt.Sprintf("out-S%d", i+1)))
	}
	dst := make([]hocl.Atom, 0, fan)
	for i := 0; i < rng.Intn(fan+1); i++ {
		dst = append(dst, hocl.Ident(fmt.Sprintf("D%d", i+1)))
	}
	atoms := []hocl.Atom{
		hocl.Tuple{hoclflow.KeySRC, hocl.NewSolution(src...)},
		hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution(dst...)},
		hocl.Tuple{hoclflow.KeySRV, hocl.Str("work")},
	}
	if rng.Intn(2) == 0 {
		atoms = append(atoms, hocl.Tuple{hoclflow.KeyIN, hocl.NewSolution(in...)})
	}
	if rng.Intn(3) == 0 {
		atoms = append(atoms, hocl.Tuple{hoclflow.KeyPAR, hocl.List(hocl.SnapshotAtoms(in))})
	}
	res := hocl.NewSolution()
	if srcLeft == 0 && rng.Intn(2) == 0 {
		res.Add(hocl.Str("out-work"))
	}
	atoms = append(atoms, hocl.Tuple{hoclflow.KeyRES, res})
	// Occasional duplicate atoms exercise multiset multiplicities.
	if rng.Intn(4) == 0 {
		atoms = append(atoms, hocl.Int(int64(rng.Intn(3))), hocl.Int(int64(rng.Intn(3))))
	}
	return atoms
}

// TestFullPushesConvergeUnderAnyOrder is the status push's property
// test: across randomized diamond/mesh-shaped status histories, a space
// fed each task's encoder payloads in a seeded random permutation, with
// random duplicates, equals a space fed only each task's final push.
// Tasks deliver concurrently (one goroutine per task, as agents push
// concurrently in a session), so the test also exercises the locking
// under -race.
func TestFullPushesConvergeUnderAnyOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			shuffled, final := New(), New()
			const tasks = 6
			const steps = 40
			var wg sync.WaitGroup
			for ti := 0; ti < tasks; ti++ {
				wg.Add(1)
				go func(ti int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*100 + int64(ti)))
					task := fmt.Sprintf("N%d", ti)
					enc := &hoclflow.StatusEncoder{Task: task}
					fan := 1 + rng.Intn(8)
					var pushes [][]hocl.Atom
					for step := 0; step < steps; step++ {
						state := randomStatusState(rng, fan)
						if p := enc.Encode(state, rng.Intn(2) == 0); p != nil {
							pushes = append(pushes, p)
						}
					}
					var deliveries [][]hocl.Atom
					for _, p := range pushes {
						for n := 1 + rng.Intn(3); n > 0; n-- {
							deliveries = append(deliveries, p)
						}
					}
					rng.Shuffle(len(deliveries), func(i, j int) {
						deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
					})
					for _, p := range deliveries {
						applyPayload(shuffled, p)
					}
					applyPayload(final, pushes[len(pushes)-1])
				}(ti)
			}
			wg.Wait()

			if got, want := shuffled.StateFingerprint(), final.StateFingerprint(); got != want {
				t.Errorf("spaces diverged: shuffled %#x vs final %#x\nshuffled: %v\nfinal:    %v",
					got, want, shuffled.Snapshot(), final.Snapshot())
			}
			for ti := 0; ti < tasks; ti++ {
				task := fmt.Sprintf("N%d", ti)
				if ss, fs := shuffled.Status(task), final.Status(task); ss != fs {
					t.Errorf("task %s status: shuffled %v vs final %v", task, ss, fs)
				}
			}
		})
	}
}
