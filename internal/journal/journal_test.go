package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ginflow/internal/hocl"
)

func testMeta(id int64) SessionMeta {
	return SessionMeta{
		ID:        id,
		Workflow:  json.RawMessage(`{"name":"t","tasks":[{"id":"T1","service":"s"}]}`),
		TimeoutNS: 1e9,
	}
}

func statusPayload(task string, n int) []hocl.Atom {
	sub := hocl.NewSolution(hocl.Tuple{hocl.Ident("RES"), hocl.NewSolution(hocl.Int(int64(n)))})
	sub.SetInert(true)
	return []hocl.Atom{hocl.Tuple{hocl.Ident(task), sub}}
}

func mustOpen(t *testing.T, cfg Config) *Journal {
	t.Helper()
	j, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	j := mustOpen(t, Config{Dir: t.TempDir()})
	w, err := j.CreateSession(testMeta(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := j.ReadSession(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Fatal("unfinished session read back done")
	}
	if st.Meta.ID != 3 || string(st.Meta.Workflow) == "" {
		t.Fatalf("meta did not round-trip: %+v", st.Meta)
	}
	// Payloads: the (empty) head snapshot plus the 5 status records.
	if len(st.Payloads) != 6 || st.StatusRecords != 5 {
		t.Fatalf("got %d payloads / %d status records, want 6 / 5", len(st.Payloads), st.StatusRecords)
	}
	if len(st.Payloads[0]) != 0 {
		t.Fatalf("head snapshot not empty: %v", st.Payloads[0])
	}
	for i := 1; i < 6; i++ {
		if !st.Payloads[i][0].Equal(statusPayload("T1", i-1)[0]) {
			t.Fatalf("payload %d did not round-trip", i)
		}
	}
	if st.TornBytes != 0 {
		t.Fatalf("clean file reports %d torn bytes", st.TornBytes)
	}
}

func TestJournalCheckpointCutsReplay(t *testing.T) {
	j := mustOpen(t, Config{Dir: t.TempDir()})
	w, err := j.CreateSession(testMeta(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := statusPayload("T1", 9) // stands in for the space snapshot
	if err := w.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := j.ReadSession(1)
	if err != nil {
		t.Fatal(err)
	}
	// Replay = checkpoint snapshot + the 3 records after it; the 10
	// before the checkpoint are superseded.
	if len(st.Payloads) != 4 || st.StatusRecords != 3 {
		t.Fatalf("got %d payloads / %d status, want 4 / 3", len(st.Payloads), st.StatusRecords)
	}
	if !st.Payloads[0][0].Equal(snap[0]) {
		t.Fatal("replay does not start at the checkpoint snapshot")
	}
}

func TestJournalTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Config{Dir: dir})
	w, err := j.CreateSession(testMeta(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	seg := filepath.Join(dir, "wf-2", segmentName(1))
	intact, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate mid-record crash points: cut the last record at each byte
	// boundary and confirm replay yields exactly the first 3 records
	// (never an error, never a panic).
	for cut := len(intact) - 1; cut > len(intact)-20; cut-- {
		if err := os.WriteFile(seg, intact[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := j.ReadSession(2)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if st.StatusRecords != 3 {
			t.Fatalf("cut %d: replayed %d status records, want 3", cut, st.StatusRecords)
		}
		if st.TornBytes == 0 {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
	}

	// Trailing garbage after an intact file (a torn frame header) is
	// ignored; all 4 records survive.
	garbage := append(append([]byte(nil), intact...), 0xAA, 0xBB)
	if err := os.WriteFile(seg, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	st0, err := j.ReadSession(2)
	if err != nil {
		t.Fatal(err)
	}
	if st0.StatusRecords != 4 || st0.TornBytes != 2 {
		t.Fatalf("garbage tail: %d records / %d torn bytes, want 4 / 2", st0.StatusRecords, st0.TornBytes)
	}

	// A bit-flip inside the last record's payload fails its fingerprint:
	// the record is dropped, earlier ones survive.
	flipped := append([]byte(nil), intact...)
	flipped[len(flipped)-12] ^= 0x40
	if err := os.WriteFile(seg, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := j.ReadSession(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.StatusRecords != 3 {
		t.Fatalf("bit flip: replayed %d status records, want 3", st.StatusRecords)
	}
}

func TestJournalRotationPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Config{Dir: dir, MaxSegmentBytes: 256, SnapshotEvery: 4})
	w, err := j.CreateSession(testMeta(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
		if w.ShouldCheckpoint() {
			if err := w.Checkpoint(statusPayload("T1", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	segs, err := listSegments(filepath.Join(dir, "wf-7"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("rotation left %d segments, want 1 (pruned)", len(segs))
	}
	if segs[0].index < 2 {
		t.Fatalf("segment never rotated (index %d)", segs[0].index)
	}
	st, err := j.ReadSession(7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Meta.ID != 7 {
		t.Fatalf("meta lost across rotation: %+v", st.Meta)
	}
}

func TestJournalDoneAndRemove(t *testing.T) {
	j := mustOpen(t, Config{Dir: t.TempDir()})
	w, err := j.CreateSession(testMeta(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendStatus(statusPayload("T1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	st, err := j.ReadSession(4)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatal("finished session not marked done")
	}
	ids, err := j.SessionIDs()
	if err != nil || len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("SessionIDs = %v, %v", ids, err)
	}
	if err := j.RemoveSession(4); err != nil {
		t.Fatal(err)
	}
	ids, _ = j.SessionIDs()
	if len(ids) != 0 {
		t.Fatalf("session survived removal: %v", ids)
	}
}

func TestJournalCrashHookDropsWrites(t *testing.T) {
	j := mustOpen(t, Config{Dir: t.TempDir(), CrashAfterRecords: 5})
	w, err := j.CreateSession(testMeta(9))
	if err != nil {
		t.Fatal(err)
	}
	// Segment head consumed 2 records (workflow + snapshot); 3 status
	// records fit before the hook trips.
	for i := 0; i < 10; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if !w.Crashed() {
		t.Fatal("crash hook never tripped")
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	st, err := j.ReadSession(9)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Fatal("done record survived the simulated crash")
	}
	if st.StatusRecords != 3 {
		t.Fatalf("replayed %d status records, want 3", st.StatusRecords)
	}
}

// TestJournalTornRotationHeadFallsBack covers the rotation window: a
// kill between the new segment's workflow record and its head snapshot
// must fall back to the intact predecessor (which rotation prunes only
// after the new head is complete), not restart from scratch.
func TestJournalTornRotationHeadFallsBack(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Config{Dir: dir})
	w, err := j.CreateSession(testMeta(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Hand-write segment 2 holding only the workflow record — the state
	// a kill leaves when it lands between the two head writes.
	metaJSON, _ := json.Marshal(testMeta(6))
	var frame []byte
	frame = append(frame, 0, 0, 0, 0)
	frame[0] = byte(len(metaJSON))
	frame = append(frame, recWorkflow)
	frame = append(frame, metaJSON...)
	var sum [8]byte
	fp := frameFingerprint(recWorkflow, metaJSON)
	for i := 0; i < 8; i++ {
		sum[i] = byte(fp >> (8 * i))
	}
	frame = append(frame, sum[:]...)
	if err := os.WriteFile(filepath.Join(dir, "wf-6", segmentName(2)), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := j.ReadSession(6)
	if err != nil {
		t.Fatal(err)
	}
	if st.StatusRecords != 4 {
		t.Fatalf("fell back to %d status records, want the predecessor's 4", st.StatusRecords)
	}

	// With the predecessor gone (post-prune kill before any snapshot),
	// the torn head is the last resort: restart from scratch.
	if err := os.Remove(filepath.Join(dir, "wf-6", segmentName(1))); err != nil {
		t.Fatal(err)
	}
	st, err = j.ReadSession(6)
	if err != nil {
		t.Fatal(err)
	}
	if st.StatusRecords != 0 || len(st.Payloads) != 0 {
		t.Fatalf("last-resort recovery not from scratch: %d records", st.StatusRecords)
	}
}

func TestJournalResumeRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Config{Dir: dir})
	w, err := j.CreateSession(testMeta(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	snap := statusPayload("T1", 2)
	w2, err := j.ResumeSession(testMeta(5), snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendStatus(statusPayload("T1", 3)); err != nil {
		t.Fatal(err)
	}
	st, err := j.ReadSession(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Payloads) != 2 || st.StatusRecords != 1 {
		t.Fatalf("resume replay: %d payloads / %d status, want 2 / 1", len(st.Payloads), st.StatusRecords)
	}
	if !st.Payloads[0][0].Equal(snap[0]) {
		t.Fatal("resume replay does not start at the recovered snapshot")
	}
	segs, _ := listSegments(filepath.Join(dir, "wf-5"))
	if len(segs) != 1 || segs[0].index != 2 {
		t.Fatalf("resume left segments %v, want only seg 2", segs)
	}
}
