// Package journal implements GinFlow's durable session store: a
// write-ahead log that lets a fresh Manager process resume the workflow
// sessions a crashed one left behind (DESIGN.md "Durability &
// recovery").
//
// Each session owns a directory of append-only segment files. A segment
// begins with the submitted workflow (its JSON form plus the submission
// metadata needed to rebuild the session) and a full space snapshot,
// followed by the session's status-push stream — the same versioned
// full-record payloads agents publish on the space topic, in exactly
// the order the session's space folded them, encoded with the binary
// atom codec (hocl.EncodeAtoms). Replaying a segment into an empty
// space therefore rebuilds the crashed session's observable state
// through the very version-gated apply path live operation uses. The
// format carries no version: a journal written while status pushes
// could be deltas does not replay.
//
// A segment holds exactly what the space folds: workflow, snapshot,
// status and done records. Agent inbox traffic is not journaled: a
// resumed session re-derives what the crash lost by reconciling the
// agent specs against the replayed space, and a respawn after resume
// replays the fresh broker's log (DESIGN.md "Replay and resume
// semantics"). The inbox record type survives only for the frozen
// benchmark probe, which writes it through AppendInbox; ReadSession
// skips it.
//
// Every record is framed with its length and a fingerprint of its
// contents, so a torn tail — the half-written record of a mid-write
// crash — is detected and cleanly ignored on open: recovery resumes
// from the last intact record. Periodic checkpoints (fresh snapshots)
// bound replay length; when a segment outgrows its size budget the
// writer rotates to a new segment headed by a fresh workflow record and
// snapshot, and prunes the older segments it supersedes.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/obs"
)

// Record types of the segment frame format.
const (
	// recWorkflow carries the session metadata (JSON-encoded
	// SessionMeta, including the workflow definition). It is the first
	// record of every segment.
	recWorkflow byte = 1
	// recSnapshot carries a full space snapshot as an encoded molecule
	// list (task tuples + markers): the replay starting point.
	recSnapshot byte = 2
	// recStatus carries one space-topic status payload (a VER header
	// and the task's full Name:<...> record, or a marker) as an encoded
	// molecule list.
	recStatus byte = 3
	// recDone marks the session finished: Recover must not resume it.
	recDone byte = 4
	// recInbox carries one direct-topic inbox message (topic + payload
	// atoms). It is written only by the frozen benchmark probe through
	// AppendInbox; the product writes none, and ReadSession validates
	// the frame and skips it.
	recInbox byte = 5
)

// frameOverhead is the fixed per-record framing cost: a uint32 length,
// a type byte and a uint64 content fingerprint.
const frameOverhead = 4 + 1 + 8

// maxRecordBytes bounds a single record on read: a corrupt length field
// must not drive a gigabyte allocation.
const maxRecordBytes = 1 << 28

// Config tunes a Journal. The zero value of every field takes a
// default; only Dir is required.
type Config struct {
	// Dir is the journal root directory; each session journals into a
	// subdirectory wf-<id>/ of it. Empty disables journaling.
	Dir string
	// SnapshotEvery is the checkpoint cadence: a fresh space snapshot is
	// written after this many status records (default 256). Smaller
	// values shorten replay at the cost of write volume.
	SnapshotEvery int
	// MaxSegmentBytes rotates the session to a new segment file once the
	// current one outgrows this size at a checkpoint (default 4 MiB).
	// Rotation prunes the superseded segments.
	MaxSegmentBytes int64
	// Sync fsyncs after every checkpoint and rotation. The default
	// (false) is durable against process crashes — the journal's threat
	// model — but not against host power loss.
	Sync bool

	// CrashAfterRecords is a test hook simulating a process crash at an
	// exact journal point: after this many records have been appended,
	// every later write (status, checkpoint, done record) is silently
	// dropped, leaving the on-disk state exactly as a kill at that
	// instant would. 0 disables the hook.
	CrashAfterRecords int64

	// Chaos, when non-nil, injects write faults (transient errors, torn
	// half-writes, slow fsync) drawn from the schedule's journal
	// boundaries. Torn and errored writes are retried after repairing the
	// file tail, up to Retry's budget.
	Chaos *failure.Schedule
	// Retry bounds the write retry loop under Chaos (zero value takes the
	// failure package defaults).
	Retry failure.RetryConfig

	// Metrics selects the registry journal I/O counters register in
	// (nil = obs.Default()).
	Metrics *obs.Registry
}

// jmetrics holds the journal's pre-resolved instruments; appendFrame is
// a guarded 0-alloc hot path (BenchmarkJournalAppendStatus), so every
// update is a single atomic increment on a resolved counter.
type jmetrics struct {
	appends   *obs.Counter
	fsyncs    *obs.Counter
	rotations *obs.Counter
	tornTails *obs.Counter
	retries   *obs.Counter
}

func newJMetrics(reg *obs.Registry) *jmetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &jmetrics{
		appends: reg.Counter("ginflow_journal_appends_total",
			"Framed records appended to session segments."),
		fsyncs: reg.Counter("ginflow_journal_fsyncs_total",
			"Segment fsyncs performed (Config.Sync checkpoints and rotations)."),
		rotations: reg.Counter("ginflow_journal_rotations_total",
			"Segment rotations (size-budget rollovers and recovery reseeds)."),
		tornTails: reg.Counter("ginflow_journal_torn_tails_total",
			"Torn segment tails detected and ignored during recovery reads."),
		retries: reg.Counter("ginflow_retry_attempts_total",
			"Retries after transient faults, per boundary.", obs.L("boundary", "journal-write")),
	}
}

// Enabled reports whether the config selects a journal directory.
func (c Config) Enabled() bool { return c.Dir != "" }

func (c Config) withDefaults() Config {
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
	if c.MaxSegmentBytes <= 0 {
		c.MaxSegmentBytes = 4 << 20
	}
	return c
}

// SessionMeta is the durable identity of a session: everything a fresh
// Manager needs to rebuild it, minus the service implementations (Go
// functions cannot be persisted; Recover takes a registry).
type SessionMeta struct {
	// ID is the session's manager-unique identifier, also encoded in the
	// session's directory name and topic namespace.
	ID int64 `json:"id"`
	// Workflow is the submitted definition in its JSON form
	// (workflow.Definition round-trips through it).
	Workflow json.RawMessage `json:"workflow"`
	// TimeoutNS is the session's real-time timeout in nanoseconds.
	TimeoutNS int64 `json:"timeout_ns"`
	// CollectTrace records whether the session retains its event
	// timeline in the report.
	CollectTrace bool `json:"collect_trace,omitempty"`
	// Executor is the session's executor kind override ("" = manager
	// default).
	Executor string `json:"executor,omitempty"`
}

// Journal manages the session journals under one root directory.
type Journal struct {
	cfg Config
	met *jmetrics
}

// Open prepares a journal rooted at cfg.Dir, creating the directory if
// needed.
func Open(cfg Config) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("journal: no directory configured")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{cfg: cfg, met: newJMetrics(cfg.Metrics)}, nil
}

func (j *Journal) sessionDir(id int64) string {
	return filepath.Join(j.cfg.Dir, fmt.Sprintf("wf-%d", id))
}

// SessionIDs returns the IDs of all sessions present in the journal
// directory (finished or not), sorted ascending. A fresh Manager uses
// the maximum to keep new session IDs from colliding with journaled
// ones.
func (j *Journal) SessionIDs() ([]int64, error) {
	entries, err := os.ReadDir(j.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var ids []int64
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "wf-") {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimPrefix(e.Name(), "wf-"), 10, 64)
		if err != nil || id <= 0 {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, nil
}

// RemoveSession deletes a session's journal directory: the cleanup of a
// session that finished and needs no recovery.
func (j *Journal) RemoveSession(id int64) error {
	return os.RemoveAll(j.sessionDir(id))
}

// CreateSession starts journaling a fresh session: its directory is
// created and the first segment is seeded with the workflow record and
// an empty snapshot.
func (j *Journal) CreateSession(meta SessionMeta) (*SessionWriter, error) {
	dir := j.sessionDir(meta.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: session %d: %w", meta.ID, err)
	}
	w := &SessionWriter{cfg: j.cfg, dir: dir, meta: meta, met: j.met}
	if err := w.rotate(nil); err != nil {
		return nil, err
	}
	return w, nil
}

// ResumeSession reopens an unfinished session for write-through after
// recovery: the recovered state is checkpointed into a fresh segment
// (whose workflow record re-persists meta) and the superseded segments
// are pruned. snapshot must be the molecule list of the rebuilt space.
func (j *Journal) ResumeSession(meta SessionMeta, snapshot []hocl.Atom) (*SessionWriter, error) {
	dir := j.sessionDir(meta.ID)
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &SessionWriter{cfg: j.cfg, dir: dir, meta: meta, met: j.met}
	if n := len(segs); n > 0 {
		w.segIndex = segs[n-1].index
	}
	if err := w.rotate(snapshot); err != nil {
		return nil, err
	}
	return w, nil
}

// SessionWriter appends one session's records to its current segment
// file. It is safe for concurrent use, though sessions write from a
// single goroutine in practice.
type SessionWriter struct {
	cfg  Config
	dir  string
	meta SessionMeta
	// met holds the journal's resolved instruments; nil (a writer built
	// outside Journal, tests only) disables them — every obs instrument
	// is nil-receiver-safe, but the struct pointer itself needs a guard,
	// so writers always get the owning Journal's non-nil met in practice.
	met *jmetrics

	mu        sync.Mutex
	f         *os.File
	segIndex  int
	size      int64
	sinceSnap int   // status records since the last snapshot
	records   int64 // total records appended (crash-hook counter)
	crashed   bool  // test hook tripped: drop all writes
	closed    bool
	scratch   []byte // frame assembly buffer, reused per record
	enc       []byte // atom-encoding buffer, reused per record
}

// segmentName renders the file name of segment n.
func segmentName(n int) string { return fmt.Sprintf("seg-%06d.gfj", n) }

// segmentRef locates one segment file.
type segmentRef struct {
	index int
	path  string
}

func listSegments(dir string) ([]segmentRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []segmentRef
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".gfj") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".gfj"))
		if err != nil {
			continue
		}
		segs = append(segs, segmentRef{index: n, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].index < segs[b].index })
	return segs, nil
}

// crashTripped reports (and latches) the test hook; callers hold w.mu.
func (w *SessionWriter) crashTripped() bool {
	if w.crashed {
		return true
	}
	if w.cfg.CrashAfterRecords > 0 && w.records >= w.cfg.CrashAfterRecords {
		w.crashed = true
	}
	return w.crashed
}

// Crashed reports whether the crash test hook has tripped: all writes
// after the configured record count were dropped.
func (w *SessionWriter) Crashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.crashed
}

// appendFrame writes one framed record; callers hold w.mu. Under chaos,
// failed or torn writes are repaired (the file is truncated back to the
// last durable frame boundary) and retried with backoff until the retry
// budget is spent.
func (w *SessionWriter) appendFrame(typ byte, payload []byte) error {
	if w.closed || w.crashTripped() {
		return nil
	}
	if w.f == nil {
		return fmt.Errorf("journal: session %d: no open segment", w.meta.ID)
	}
	buf := w.scratch[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint64(buf, frameFingerprint(typ, payload))
	w.scratch = buf
	rc := w.cfg.Retry.WithDefaults()
	frameOwned := false
	for attempt := 1; ; attempt++ {
		n, err := w.writeFrame(buf)
		if err == nil {
			w.size += int64(len(buf))
			w.records++
			if w.met != nil {
				w.met.appends.Inc()
			}
			return nil
		}
		if w.met != nil {
			w.met.retries.Inc()
		}
		// A partial write — injected torn frame or a real short write —
		// leaves garbage past the last frame boundary; cut it off so the
		// retry (and any post-crash read) starts clean.
		if n > 0 {
			if rerr := w.repairTail(); rerr != nil {
				return fmt.Errorf("journal: session %d: tail repair after %v: %w",
					w.meta.ID, err, rerr)
			}
		}
		if attempt >= rc.MaxAttempts {
			return fmt.Errorf("journal: session %d: write after %d attempts: %w (%w)",
				w.meta.ID, attempt, failure.ErrRetriesExhausted, err)
		}
		// The backoff must not hold w.mu: under a virtual clock the sleep
		// parks this goroutine in the discrete-event schedule, and any
		// other writer blocking on w.mu while holding the run token would
		// wedge the whole schedule. Frames are self-contained, so another
		// writer appending (or rotating) inside the window is harmless —
		// but it reuses w.scratch, so take a private copy of the frame
		// first (retries are chaos-only; the happy path stays
		// allocation-free).
		if !frameOwned {
			buf = append([]byte(nil), buf...)
			frameOwned = true
		}
		w.sleepUnlocked(rc.Delay(attempt))
	}
}

// sleepUnlocked stalls on the chaos clock with w.mu released. It takes
// w.mu back even when the sleep panics (race-detector builds check the
// virtual clock's calling contract there), so a caller's deferred Unlock
// stays balanced and the panic reaches the caller intact.
func (w *SessionWriter) sleepUnlocked(seconds float64) {
	w.mu.Unlock()
	defer w.mu.Lock()
	w.cfg.Chaos.Sleep(seconds)
}

// writeFrame performs the raw segment write for one frame, consulting
// the chaos schedule first: an injected error skips the write entirely,
// an injected torn write persists only half the frame before failing.
// Callers hold w.mu.
func (w *SessionWriter) writeFrame(buf []byte) (int, error) {
	if f := w.cfg.Chaos.Draw(failure.BoundaryJournalWrite); f.Kind != failure.FaultNone {
		switch f.Kind {
		case failure.FaultError:
			return 0, f.Err
		case failure.FaultTorn:
			n, _ := w.f.Write(buf[:len(buf)/2])
			return n, f.Err
		}
	}
	return w.f.Write(buf)
}

// repairTail truncates the segment back to the last durable frame
// boundary (w.size) after a partial write, repositioning the file
// offset to match; callers hold w.mu. The segment is opened without
// O_APPEND precisely so this seek is honoured.
func (w *SessionWriter) repairTail() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	_, err := w.f.Seek(w.size, io.SeekStart)
	return err
}

// frameFingerprint hashes a record's type and payload for the frame
// trailer: FNV-1a over the type byte then the payload, accumulated
// inline so the per-record framing path allocates nothing.
func frameFingerprint(typ byte, payload []byte) uint64 {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := (offset ^ uint64(typ)) * prime
	for _, b := range payload {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// AppendStatus journals one space-topic status payload — the write-ahead
// half of the session's write-through space. The atoms must be frozen
// (they are broker payloads, frozen by the publish contract). The hot
// path reuses the writer's encoding and framing buffers: appending a
// record allocates nothing.
func (w *SessionWriter) AppendStatus(atoms []hocl.Atom) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.enc = hocl.AppendAtoms(w.enc[:0], atoms)
	if err := w.appendFrame(recStatus, w.enc); err != nil {
		return err
	}
	w.sinceSnap++
	return nil
}

// AppendInbox journals one direct-topic message as a recInbox record:
// uvarint topic length, topic bytes, then the encoded atom list. It is
// written only by the frozen benchmark probe; the product writes none,
// and ReadSession skips the record.
func (w *SessionWriter) AppendInbox(topic string, atoms []hocl.Atom) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.enc = binary.AppendUvarint(w.enc[:0], uint64(len(topic)))
	w.enc = append(w.enc, topic...)
	w.enc = hocl.AppendAtoms(w.enc, atoms)
	return w.appendFrame(recInbox, w.enc)
}

// ShouldCheckpoint reports whether enough status records have
// accumulated since the last snapshot to warrant a checkpoint.
func (w *SessionWriter) ShouldCheckpoint() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sinceSnap >= w.cfg.SnapshotEvery
}

// Checkpoint writes a fresh space snapshot, rotating to a new segment
// first when the current one has outgrown its size budget. snapshot is
// the full molecule list of the session's space (task tuples plus
// markers) at a point consistent with the status records appended so
// far.
func (w *SessionWriter) Checkpoint(snapshot []hocl.Atom) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.crashTripped() {
		return nil
	}
	if w.size >= w.cfg.MaxSegmentBytes {
		return w.rotateLocked(snapshot)
	}
	w.enc = hocl.AppendAtoms(w.enc[:0], snapshot)
	if err := w.appendFrame(recSnapshot, w.enc); err != nil {
		return err
	}
	w.sinceSnap = 0
	return w.maybeSync()
}

// rotate opens the next segment, seeds it with the workflow record and
// a snapshot, then prunes superseded segments.
func (w *SessionWriter) rotate(snapshot []hocl.Atom) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotateLocked(snapshot)
}

func (w *SessionWriter) rotateLocked(snapshot []hocl.Atom) error {
	if w.crashTripped() {
		return nil
	}
	metaJSON, err := json.Marshal(w.meta)
	if err != nil {
		return fmt.Errorf("journal: session %d: %w", w.meta.ID, err)
	}
	next := w.segIndex + 1
	path := filepath.Join(w.dir, segmentName(next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: session %d: %w", w.meta.ID, err)
	}
	old := w.f
	oldIndex := w.segIndex
	if old != nil && w.met != nil {
		w.met.rotations.Inc()
	}
	w.f, w.segIndex, w.size, w.sinceSnap = f, next, 0, 0
	if err := w.appendFrame(recWorkflow, metaJSON); err != nil {
		return err
	}
	if err := w.appendFrame(recSnapshot, hocl.EncodeAtoms(snapshot)); err != nil {
		return err
	}
	if w.crashTripped() {
		// The crash hook dropped a head write (or tripped right after
		// them): a process killed here never reached the prune, so the
		// predecessor segments stay for recovery to fall back on.
		if old != nil {
			old.Close()
		}
		return nil
	}
	if err := w.maybeSync(); err != nil {
		return err
	}
	// The new segment head is durable: the old segments are superseded.
	if old != nil {
		old.Close()
	}
	if oldIndex > 0 {
		segs, err := listSegments(w.dir)
		if err == nil {
			for _, s := range segs {
				if s.index < next {
					os.Remove(s.path)
				}
			}
		}
	}
	return nil
}

func (w *SessionWriter) maybeSync() error {
	if f := w.cfg.Chaos.Draw(failure.BoundaryJournalSync); f.Kind == failure.FaultSlow {
		// Sleep outside w.mu — holding a real mutex across a virtual-clock
		// sleep can wedge the discrete-event schedule (see appendFrame).
		w.sleepUnlocked(f.Delay)
	}
	if !w.cfg.Sync || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: session %d: %w", w.meta.ID, err)
	}
	if w.met != nil {
		w.met.fsyncs.Inc()
	}
	return nil
}

// Finish marks the session complete (the done record) and closes the
// writer. A finished session is skipped by recovery; the caller may
// additionally Journal.RemoveSession to reclaim the directory.
func (w *SessionWriter) Finish() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	err := w.appendFrame(recDone, nil)
	if err2 := w.maybeSync(); err == nil {
		err = err2
	}
	w.closed = true
	if w.f != nil {
		if err2 := w.f.Close(); err == nil && !w.crashed {
			err = err2
		}
		w.f = nil
	}
	return err
}

// Close closes the writer without marking the session done (used when a
// manager shuts down while leaving sessions resumable).
func (w *SessionWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.f != nil {
		err := w.f.Close()
		w.f = nil
		return err
	}
	return nil
}
