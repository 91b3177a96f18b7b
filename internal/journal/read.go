package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"

	"ginflow/internal/hocl"
)

// SessionState is the replayable state of one journaled session, read
// back from its newest intact segment.
type SessionState struct {
	// Meta is the durable session identity from the segment's workflow
	// record.
	Meta SessionMeta
	// Done reports that the session finished (a done record is present):
	// recovery must skip it.
	Done bool
	// Payloads is the replay stream: the latest complete snapshot's
	// molecule list followed by every status payload journaled after it,
	// in fold order. Folding each element into an empty space (the same
	// apply path live status pushes take) rebuilds the session's
	// observable state.
	Payloads [][]hocl.Atom
	// TornBytes counts the bytes of torn tail ignored at the end of the
	// newest segment (0 when the segment ends on a frame boundary).
	TornBytes int64
	// StatusRecords counts the status payloads replayed (snapshot
	// excluded).
	StatusRecords int

	// headTorn marks a segment whose workflow record is intact but
	// whose head snapshot is torn: usable only as a restart-from-
	// scratch last resort when no intact segment exists.
	headTorn bool
}

// ReadSession reads a session's replayable state from its newest intact
// segment: the workflow, snapshot, status and done records, which are
// exactly what the session's space folds. An inbox record (written only
// by the frozen benchmark probe) is validated by its frame and skipped.
// A torn tail — the trailing bytes of a record interrupted by
// the crash — is detected by the frame length/fingerprint and ignored; a
// segment whose head (workflow record + first snapshot) is torn is
// skipped entirely in favour of its predecessor, which rotation keeps on
// disk until the successor's head is durable.
func (j *Journal) ReadSession(id int64) (*SessionState, error) {
	dir := j.sessionDir(id)
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("journal: session %d: no segments", id)
	}
	var lastErr error
	// A segment whose workflow record survived but whose head snapshot
	// is torn (the rotation window: kill between the two head writes)
	// is only a last resort — an intact predecessor preserves the
	// progress the torn head would discard.
	var tornHead *SessionState
	for i := len(segs) - 1; i >= 0; i-- {
		st, err := readSegment(segs[i].path)
		if err != nil {
			lastErr = err
			continue
		}
		if st.Meta.ID != id {
			lastErr = fmt.Errorf("journal: session %d: segment %s records session %d",
				id, segs[i].path, st.Meta.ID)
			continue
		}
		if st.headTorn {
			if tornHead == nil {
				tornHead = st
			}
			continue
		}
		if st.TornBytes > 0 {
			j.met.tornTails.Inc()
		}
		return st, nil
	}
	if tornHead != nil {
		j.met.tornTails.Inc()
		return tornHead, nil
	}
	return nil, fmt.Errorf("journal: session %d: no intact segment: %w", id, lastErr)
}

// readSegment reads and parses one segment file.
func readSegment(path string) (*SessionState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return parseSegment(path, data)
}

// parseSegment parses one segment's bytes (path only names it in
// errors): frames are validated by length and fingerprint, replay is cut
// to the last complete snapshot, and the first invalid frame ends the
// scan (everything after it is torn tail).
func parseSegment(path string, data []byte) (*SessionState, error) {
	st := &SessionState{}
	sawMeta, sawSnapshot := false, false
	pos := 0
	for {
		typ, payload, next, ok := nextFrame(data, pos)
		if !ok {
			st.TornBytes = int64(len(data) - pos)
			break
		}
		pos = next
		switch typ {
		case recWorkflow:
			if err := json.Unmarshal(payload, &st.Meta); err != nil {
				return nil, fmt.Errorf("journal: %s: workflow record: %w", path, err)
			}
			sawMeta = true
		case recSnapshot:
			atoms, err := hocl.DecodeAtoms(payload)
			if err != nil {
				return nil, fmt.Errorf("journal: %s: snapshot record: %w", path, err)
			}
			// A later snapshot supersedes everything before it: replay
			// restarts here.
			st.Payloads = st.Payloads[:0]
			st.Payloads = append(st.Payloads, atoms)
			st.StatusRecords = 0
			sawSnapshot = true
		case recStatus:
			atoms, err := hocl.DecodeAtoms(payload)
			if err != nil {
				return nil, fmt.Errorf("journal: %s: status record: %w", path, err)
			}
			st.Payloads = append(st.Payloads, atoms)
			st.StatusRecords++
		case recInbox:
			// The frame is intact; the product neither writes nor
			// replays inbox records.
		case recDone:
			st.Done = true
		default:
			return nil, fmt.Errorf("journal: %s: unknown record type %d", path, typ)
		}
	}
	if !sawMeta {
		return nil, fmt.Errorf("journal: %s: torn segment head", path)
	}
	if !sawSnapshot {
		// The crash hit between the workflow record and the head
		// snapshot: the submission is durable but no state is. The
		// session is recoverable from scratch (an empty replay stream),
		// but ReadSession prefers an intact predecessor segment.
		st.Payloads = nil
		st.StatusRecords = 0
		st.headTorn = true
	}
	return st, nil
}

// nextFrame validates and extracts the frame starting at pos. ok is
// false when the remaining bytes do not hold one intact frame — a torn
// tail, by construction of the append-only writer.
func nextFrame(data []byte, pos int) (typ byte, payload []byte, next int, ok bool) {
	rest := data[pos:]
	if len(rest) < frameOverhead {
		return 0, nil, 0, false
	}
	n := binary.LittleEndian.Uint32(rest)
	if n > maxRecordBytes || int(n) > len(rest)-frameOverhead {
		return 0, nil, 0, false
	}
	typ = rest[4]
	payload = rest[5 : 5+n]
	sum := binary.LittleEndian.Uint64(rest[5+n:])
	if sum != frameFingerprint(typ, payload) {
		return 0, nil, 0, false
	}
	return typ, payload, pos + frameOverhead + int(n), true
}
