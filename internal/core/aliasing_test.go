package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ginflow/internal/agent"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/space"
	"ginflow/internal/workflow"
)

// TestRunSharesOnlyWhatNobodyMutates is the run-long aliasing guard
// (DESIGN.md "Zero-reparse message path"). A published payload is shared
// by reference between its sender, the broker's log, every receiver, the
// space and the journal, so a mutation anywhere shows as a payload whose
// fingerprint moved after its publish. On the log broker with agents
// crashing (each respawn re-ingests the shared PASS payloads from the
// log), on the virtual clock:
//
//   - every published message fingerprints at the session's end as it
//     did when published;
//   - each inbox log, read back through Replayable.Log at every later
//     publish to it, holds its messages as published;
//   - every journaled record (ReadSession) and every final space record
//     is an atom that was published to the space.
func TestRunSharesOnlyWhatNobodyMutates(t *testing.T) {
	montageServices := agent.NewRegistry()
	montage.RegisterServices(montageServices)
	cases := []struct {
		name     string
		def      *workflow.Definition
		services *agent.Registry
	}{
		{"diamond-3x3-full", workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, true)), diamondServices(nil)},
		{"montage", montage.Workflow(), montageServices},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := logCrashConfig(dir, 0, 0.5, 1)
			cfg.Cluster.Virtual = true
			// No checkpoint: ReadSession replays every status record.
			cfg.Journal.SnapshotEvery = 1 << 30
			m, err := NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			type published struct {
				atoms []hocl.Atom
				fp    uint64
			}
			var (
				mu         sync.Mutex
				msgs       []published
				inboxFPs   = map[string]map[int]uint64{}
				spaceAtoms = map[uint64]bool{}
				logReads   int
				problems   []string
				// The session's journal is removed once it finishes: a
				// hard link to its one segment keeps the bytes readable.
				backup = t.TempDir()
				linked bool
			)
			broker := m.broker.(*mq.LogBroker)
			broker.SetPublishObserver(func(msg mq.Message) {
				fp := hocl.Fingerprint(msg.Atoms...)
				mu.Lock()
				defer mu.Unlock()
				if !linked {
					linked = true
					if err := linkSegments(dir, backup); err != nil {
						problems = append(problems, "link journal: "+err.Error())
					}
				}
				msgs = append(msgs, published{msg.Atoms, fp})
				if strings.HasSuffix(msg.Topic, space.DefaultTopic) {
					for _, a := range msg.Atoms {
						spaceAtoms[hocl.AtomHash(a)] = true
					}
					return
				}
				fps := inboxFPs[msg.Topic]
				if fps == nil {
					fps = map[int]uint64{}
					inboxFPs[msg.Topic] = fps
				}
				fps[msg.Offset] = fp
				retained, err := broker.Log(msg.Topic)
				if err != nil {
					problems = append(problems, "log "+msg.Topic+": "+err.Error())
					return
				}
				for _, r := range retained {
					if want, ok := fps[r.Offset]; ok && hocl.Fingerprint(r.Atoms...) != want {
						problems = append(problems, "log "+msg.Topic+": a retained message changed after its publish")
					}
					logReads++
				}
			})

			s, err := m.Submit(context.Background(), tc.def, tc.services)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Wait(context.Background())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			broker.SetPublishObserver(nil)
			mu.Lock()
			defer mu.Unlock()
			for _, p := range problems {
				t.Error(p)
			}
			if rep.Recoveries == 0 {
				t.Fatal("no agent respawned: nothing re-ingested the shared log")
			}
			if logReads == 0 {
				t.Fatal("no inbox log was read back")
			}

			for i, p := range msgs {
				if hocl.Fingerprint(p.atoms...) != p.fp {
					t.Errorf("published message %d changed after its publish: now %v", i, p.atoms)
				}
			}

			j, err := journal.Open(journal.Config{Dir: backup})
			if err != nil {
				t.Fatal(err)
			}
			st, err := j.ReadSession(s.id)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Done || st.StatusRecords == 0 {
				t.Fatalf("journal holds %d status records (done %v): the check is vacuous", st.StatusRecords, st.Done)
			}
			for _, payload := range st.Payloads {
				for _, a := range payload {
					if !spaceAtoms[hocl.AtomHash(a)] {
						t.Errorf("journaled atom was never published: %v", a)
					}
				}
			}

			states := s.space.TaskStates()
			if len(states) != len(tc.def.Tasks) {
				t.Fatalf("space holds %d records, want %d", len(states), len(tc.def.Tasks))
			}
			for name, rec := range states {
				if !spaceAtoms[hocl.AtomHash(hoclflow.TaskTuple(name, rec))] {
					t.Errorf("final space record of %s was never published: %v", name, rec)
				}
			}
			t.Logf("%d messages, %d journaled status records, %d respawns, %d log reads",
				len(msgs), st.StatusRecords, rep.Recoveries, logReads)
		})
	}
}

// linkSegments hard-links every journal segment under dir into the same
// relative path under backup.
func linkSegments(dir, backup string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "wf-*", "seg-*.gfj"))
	if err != nil {
		return err
	}
	for _, seg := range segs {
		rel, err := filepath.Rel(dir, seg)
		if err != nil {
			return err
		}
		dst := filepath.Join(backup, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.Link(seg, dst); err != nil {
			return err
		}
	}
	return nil
}
