package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ginflow/internal/failure"
)

// journalChaos builds a schedule injecting journal write faults with the
// given probabilities. MaxConsecutive keeps the default forcing (3), so
// every write eventually lands inside the default 5-attempt budget.
func journalChaos(seed int64, errP, tornP float64) *failure.Schedule {
	return failure.NewSchedule(failure.ChaosConfig{
		Seed:          seed,
		JournalErrorP: errP,
		JournalTornP:  tornP,
	})
}

// TestJournalWriteFaultsRetryAndRepair: under heavy injected write
// faults — transient errors and torn half-writes — every record must
// still land intact: torn tails are truncated away before the retry, so
// the read side sees a clean, complete stream.
func TestJournalWriteFaultsRetryAndRepair(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ch := journalChaos(seed, 0.4, 0.4)
		j := mustOpen(t, Config{Dir: t.TempDir(), Chaos: ch})
		w, err := j.CreateSession(testMeta(9))
		if err != nil {
			t.Fatal(err)
		}
		const n = 40
		for i := 0; i < n; i++ {
			if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, i, err)
			}
		}
		st, err := j.ReadSession(9)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.TornBytes != 0 {
			t.Fatalf("seed %d: %d torn bytes survived the repairs", seed, st.TornBytes)
		}
		if st.StatusRecords != n {
			t.Fatalf("seed %d: %d status records, want %d", seed, st.StatusRecords, n)
		}
		for i := 1; i <= n; i++ {
			if !st.Payloads[i][0].Equal(statusPayload("T1", i-1)[0]) {
				t.Fatalf("seed %d: payload %d corrupted", seed, i)
			}
		}
		if ch.Faults() == 0 {
			t.Fatalf("seed %d: no faults injected — the test exercised nothing", seed)
		}
	}
}

// TestJournalWriteRetriesExhausted: with consecutive-fault forcing
// disabled and a certain fault, the writer must give up with a cause
// chain matching failure.ErrRetriesExhausted instead of looping.
func TestJournalWriteRetriesExhausted(t *testing.T) {
	ch := failure.NewSchedule(failure.ChaosConfig{
		Seed:           7,
		JournalErrorP:  1,
		MaxConsecutive: -1,
	})
	j := mustOpen(t, Config{Dir: t.TempDir(), Chaos: ch, Retry: failure.RetryConfig{MaxAttempts: 3, BackoffBase: 0.001}})
	w, err := j.CreateSession(testMeta(10))
	if err == nil {
		w.Close()
		t.Fatal("CreateSession succeeded under a certain write fault")
	}
	if !errors.Is(err, failure.ErrRetriesExhausted) {
		t.Fatalf("error chain misses ErrRetriesExhausted: %v", err)
	}
	if !errors.Is(err, failure.ErrInjected) {
		t.Fatalf("error chain misses the injected cause: %v", err)
	}
}

// writeHeadOnlySegment hand-writes a segment holding only the workflow
// record — the on-disk state a kill leaves when it lands between the two
// head writes of a rotation.
func writeHeadOnlySegment(t *testing.T, dir string, id int64, segIdx int) {
	t.Helper()
	metaJSON, err := json.Marshal(testMeta(id))
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	frame = append(frame, byte(len(metaJSON)), 0, 0, 0)
	frame = append(frame, recWorkflow)
	frame = append(frame, metaJSON...)
	fp := frameFingerprint(recWorkflow, metaJSON)
	for i := 0; i < 8; i++ {
		frame = append(frame, byte(fp>>(8*i)))
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(segIdx)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDoubleTornRotation: the worst crash pattern — the rotation
// head is torn AND the predecessor segment's head is torn too (a second
// kill during the predecessor's own rotation window). No intact segment
// exists, so recovery must cleanly reach the restart-from-scratch last
// resort: the durable workflow record with an empty replay stream, not
// an error and not stale state.
func TestJournalDoubleTornRotation(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Config{Dir: dir})
	w, err := j.CreateSession(testMeta(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInbox("wf11.sa.T1", statusPayload("T1", 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	sessionDir := filepath.Join(dir, "wf-11")
	// Both the newest segment and its predecessor are caught in the
	// rotation window: workflow record durable, head snapshot torn.
	writeHeadOnlySegment(t, sessionDir, 11, 1)
	writeHeadOnlySegment(t, sessionDir, 11, 2)

	st, err := j.ReadSession(11)
	if err != nil {
		t.Fatalf("double-torn session did not reach the last resort: %v", err)
	}
	if st.Meta.ID != 11 {
		t.Fatalf("last resort lost the workflow record: %+v", st.Meta)
	}
	if len(st.Payloads) != 0 || st.StatusRecords != 0 {
		t.Fatalf("last resort is not from scratch: %d payloads, %d status",
			len(st.Payloads), st.StatusRecords)
	}
	if st.Done {
		t.Fatal("last resort marked done")
	}
}

// TestJournalSkipsInboxRecords: the product writes no inbox record,
// but the frozen benchmark probe does (AppendInbox) and reads the
// session back. Inbox records interleaved with status records, across a
// checkpoint, are skipped on read: every status payload and the status
// count come back intact, in order.
func TestJournalSkipsInboxRecords(t *testing.T) {
	j := mustOpen(t, Config{Dir: t.TempDir()})
	w, err := j.CreateSession(testMeta(12))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := w.AppendInbox("wf12.sa.T2", statusPayload("T1", 100+i)); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := w.Checkpoint(statusPayload("T1", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.AppendInbox("wf12.sa.T3", statusPayload("T1", 200)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	st, err := j.ReadSession(12)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornBytes != 0 {
		t.Fatalf("%d torn bytes: an inbox frame did not validate", st.TornBytes)
	}
	// Replay restarts at the checkpoint taken after status 1.
	if st.StatusRecords != n-2 || len(st.Payloads) != n-1 {
		t.Fatalf("read %d status records and %d payloads, want %d and %d",
			st.StatusRecords, len(st.Payloads), n-2, n-1)
	}
	if !st.Payloads[0][0].Equal(statusPayload("T1", 1)[0]) {
		t.Fatalf("snapshot payload = %v", st.Payloads[0])
	}
	for i := 2; i < n; i++ {
		got := st.Payloads[i-1]
		if len(got) != 1 || !got[0].Equal(statusPayload("T1", i)[0]) {
			t.Fatalf("status payload %d = %v", i, got)
		}
	}
}

// TestJournalResumeDropsInboxRecords: resuming a session rotates to a
// segment that holds the header and the recovered snapshot only. Inbox
// records in the old segments are not carried forward, so the resumed
// segment is byte-for-byte the size of one resumed from an inbox-free
// session, and replay starts at the snapshot.
func TestJournalResumeDropsInboxRecords(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Config{Dir: dir})
	snap := statusPayload("T1", 7)
	resumedSize := func(id int64, inbox int) int64 {
		t.Helper()
		w, err := j.CreateSession(testMeta(id))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < inbox; i++ {
			if err := w.AppendInbox("wf.sa.T2", statusPayload("T1", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.AppendStatus(statusPayload("T1", 7)); err != nil {
			t.Fatal(err)
		}
		w.Close()
		w2, err := j.ResumeSession(testMeta(id), snap)
		if err != nil {
			t.Fatal(err)
		}
		w2.Close()

		st, err := j.ReadSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.TornBytes != 0 || st.StatusRecords != 0 || len(st.Payloads) != 1 || !st.Payloads[0][0].Equal(snap[0]) {
			t.Fatalf("session %d: resumed replay = %d payloads / %d status / %d torn bytes, want the snapshot only",
				id, len(st.Payloads), st.StatusRecords, st.TornBytes)
		}
		segs, err := listSegments(j.sessionDir(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 1 {
			t.Fatalf("session %d: resume left segments %v, want one", id, segs)
		}
		fi, err := os.Stat(segs[0].path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	withInbox, without := resumedSize(14, 50), resumedSize(15, 0)
	if withInbox != without {
		t.Fatalf("resumed segment is %d bytes after 50 inbox records, %d after none: inbox history was carried forward",
			withInbox, without)
	}
}
