package core

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"ginflow/internal/executor"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/mq"
	"ginflow/internal/space"
	"ginflow/internal/workflow"
)

// TestSubmitDetachesDefinition: a session reads only the manager's plan
// of what was submitted. The caller appends a task and renames a
// service on its definition while the session runs; the session still
// completes with the submitted shape (under -race, no read of the
// caller's definition races the edit). Submitting the edited definition
// then compiles a plan of its own, an unchanged copy of it hits that
// plan, and a Submit rejected for an unbound service leaves it cached.
func TestSubmitDetachesDefinition(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(8),
		Timeout:  30 * time.Second,
	})
	ctx := context.Background()
	services := diamondServices(nil)
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false))
	submitted := def.AllTaskIDs()

	s1, err := m.Submit(ctx, def, services)
	if err != nil {
		t.Fatal(err)
	}
	def.Tasks[1].Service = "workalt"
	def.Tasks = append(def.Tasks, workflow.Task{ID: "EXTRA", Service: "work"})
	rep, err := s1.Wait(ctx)
	if err != nil {
		t.Fatalf("session failed: %v", err)
	}
	if got := slices.Sorted(maps.Keys(rep.Statuses)); !reflect.DeepEqual(got, slices.Sorted(slices.Values(submitted))) {
		t.Errorf("report covers tasks %v, want the submitted %v", got, submitted)
	}
	for id, st := range rep.Statuses {
		if st != hoclflow.StatusCompleted {
			t.Errorf("task %s is %v", id, st)
		}
	}

	s2, err := m.Submit(ctx, def, services)
	if err != nil {
		t.Fatal(err)
	}
	if s2.plan == s1.plan {
		t.Fatal("the edited definition hit the submitted one's plan")
	}
	rep2, err := s2.Wait(ctx)
	if err != nil {
		t.Fatalf("edited session failed: %v", err)
	}
	if rep2.Statuses["EXTRA"] != hoclflow.StatusCompleted {
		t.Errorf("the edited definition's EXTRA task is %v", rep2.Statuses["EXTRA"])
	}
	copyDef := &workflow.Definition{Name: def.Name, Tasks: slices.Clone(def.Tasks)}
	s3, err := m.Submit(ctx, copyDef, services)
	if err != nil {
		t.Fatal(err)
	}
	if s3.plan != s2.plan {
		t.Error("an unchanged copy of the edited definition missed its plan")
	}
	if _, err := s3.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// A Submit rejected for its service bindings takes no plan.
	unbound := &workflow.Definition{Tasks: []workflow.Task{{ID: "T1", Service: "unbound"}}}
	if _, err := m.Submit(ctx, unbound, services); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("Submit with an unbound service: %v, want ErrUnknownService", err)
	}
	data, err := def.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if p, err := m.plans.Plan(data); err != nil || p != s3.plan {
		t.Errorf("a rejected Submit replaced the cached plan (%v)", err)
	}
}

// templateState fingerprints every template of a plan and records the
// generation of each local shell, which every in-place edit bumps.
func templateState(specs []workflow.AgentSpec) []uint64 {
	var out []uint64
	for _, s := range specs {
		out = append(out, hocl.Fingerprint(s.Local), s.Local.Gen())
	}
	return out
}

// dstLen is the size of a local solution's or record's DST set.
func dstLen(sol *hocl.Solution) int {
	if tp, idx := sol.FindTuple(hoclflow.KeyDST); idx >= 0 {
		return tp[1].(*hocl.Solution).Len()
	}
	return 0
}

// rewires reports whether recovering from states re-adds a DST entry
// and re-injects an ADAPT marker, recoverSpecs' two edits.
func rewires(plan *workflow.Plan, templates []workflow.AgentSpec, states map[string]*hocl.Solution, triggered []string) (readded, adapt bool) {
	specs := recoveredSpecs(plan, templates, states, triggered)
	for i, s := range specs {
		base := templates[i].Local
		if st, ok := states[s.Task.Name]; ok {
			base = st
		}
		if dstLen(s.Local) > dstLen(base) {
			readded = true
		}
		for _, id := range triggered {
			if s.Local.Contains(hoclflow.AdaptMarker(id)) {
				adapt = true
			}
		}
	}
	return readded, adapt
}

// TestRecoverNeverEditsCachedTemplates: recovery rewires copies, never
// the plan's templates. A journaled §V-B adapted diamond is killed where
// recovery must re-add a DST entry and re-inject ADAPT, and recovered on
// a fresh manager, whose plan it shares. A later Submit of the same
// definition hits that plan, starts from pristine templates and
// reproduces the uninterrupted run: its results, its adaptations and its
// completed exit. Tasks off the adaptation's final path are not
// compared: on the real clock whether they finished before the exit did
// depends on timing (as in TestRecoverAdaptedDiamondKillPoints).
func TestRecoverNeverEditsCachedTemplates(t *testing.T) {
	spec := workflow.DefaultDiamondSpec(2, 2, false)
	def := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
	services := diamondServices(nil)
	services.RegisterFailing("work", 0.1)
	ctx := context.Background()
	baseline, err := Run(ctx, def, services, journaledConfig("", 0).withoutJournal())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	covered := 0
	for crashAfter := int64(1); crashAfter <= 120 && covered < 2; crashAfter++ {
		dir := t.TempDir()
		m1, err := NewManager(journaledConfig(dir, crashAfter))
		if err != nil {
			t.Fatal(err)
		}
		s, err := m1.Submit(ctx, def, services)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx); err != nil {
			t.Fatalf("first run failed: %v", err)
		}
		m1.Close()

		m2, err := NewManager(journaledConfig(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		ids, _ := m2.journal.SessionIDs()
		if len(ids) == 0 {
			m2.Close()
			break // past the end of the run's journal
		}
		data, err := def.JSON()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := m2.plans.Plan(data)
		if err != nil {
			t.Fatal(err)
		}
		templates, err := plan.Specs()
		if err != nil {
			t.Fatal(err)
		}
		states, triggered := journaledSpace(t, m2.journal, ids[0])
		if readded, adapt := rewires(plan, templates, states, triggered); !readded || !adapt {
			m2.Close()
			continue
		}
		covered++
		pristine := templateState(templates)

		sessions, err := m2.Recover(ctx, services)
		if err != nil || len(sessions) != 1 {
			t.Fatalf("kill@%d: recover: %d sessions, %v", crashAfter, len(sessions), err)
		}
		if sessions[0].plan != plan {
			t.Errorf("kill@%d: the recovered session compiled its own plan", crashAfter)
		}
		rep, err := sessions[0].Wait(ctx)
		if err != nil {
			t.Fatalf("kill@%d: recovered session failed: %v", crashAfter, err)
		}
		if !reflect.DeepEqual(rep.Results, baseline.Results) {
			t.Errorf("kill@%d: recovered results %v, want %v", crashAfter, rep.Results, baseline.Results)
		}
		if !reflect.DeepEqual(templateState(templates), pristine) {
			t.Errorf("kill@%d: recovery edited the plan's templates", crashAfter)
		}

		fresh, err := m2.Submit(ctx, def, services)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.plan != plan {
			t.Errorf("kill@%d: Submit after Recover missed the plan", crashAfter)
		}
		rep, err = fresh.Wait(ctx)
		if err != nil {
			t.Fatalf("kill@%d: fresh session failed: %v", crashAfter, err)
		}
		if !reflect.DeepEqual(rep.Results, baseline.Results) || !reflect.DeepEqual(rep.Adaptations, baseline.Adaptations) {
			t.Errorf("kill@%d: fresh session after recovery:\n got %v %v\nwant %v %v",
				crashAfter, rep.Results, rep.Adaptations, baseline.Results, baseline.Adaptations)
		}
		if got, want := slices.Sorted(maps.Keys(rep.Statuses)), slices.Sorted(maps.Keys(baseline.Statuses)); !reflect.DeepEqual(got, want) {
			t.Errorf("kill@%d: fresh session reports tasks %v, want %v", crashAfter, got, want)
		}
		for _, exit := range def.Exits() {
			if rep.Statuses[exit] != hoclflow.StatusCompleted {
				t.Errorf("kill@%d: fresh session's exit %s is %v", crashAfter, exit, rep.Statuses[exit])
			}
		}
		if !reflect.DeepEqual(templateState(templates), pristine) {
			t.Errorf("kill@%d: the templates changed across the sessions", crashAfter)
		}

		// The same journal with the adaptation's source and destination
		// unjournaled: recovery rewires their template-built locals,
		// which must be copies.
		for _, task := range []string{workflow.DiamondSplitName, workflow.DiamondMergeName} {
			delete(states, task)
		}
		if readded, adapt := rewires(plan, templates, states, triggered); !readded || !adapt {
			t.Errorf("kill@%d: without the source's and destination's records, recovery no longer rewires them", crashAfter)
		}
		if !reflect.DeepEqual(templateState(templates), pristine) {
			t.Errorf("kill@%d: recovery of unjournaled tasks edited their templates", crashAfter)
		}
		m2.Close()
	}
	if covered == 0 {
		t.Fatal("no kill point made recovery re-add a DST entry and re-inject ADAPT; the test is vacuous")
	}
}

// planOf compiles def into a plan of its own, as a Manager would.
func planOf(t *testing.T, def *workflow.Definition) *workflow.Plan {
	t.Helper()
	data, err := def.JSON()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := new(workflow.PlanCache).Plan(data)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// journaledSpace folds a journaled session into a throwaway space and
// returns its task states and triggered adaptations, recovery's inputs.
func journaledSpace(t *testing.T, j *journal.Journal, id int64) (map[string]*hocl.Solution, []string) {
	t.Helper()
	st, err := j.ReadSession(id)
	if err != nil {
		t.Fatal(err)
	}
	sp := space.New()
	for _, payload := range st.Payloads {
		if len(payload) > 0 {
			sp.ApplyMessage(mq.Message{Atoms: payload})
		}
	}
	return sp.TaskStates(), sp.Triggered()
}
