package journal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// realSegment writes one session through the writer, covering all five
// record types (workflow, snapshot, status, inbox, done), and returns
// its segment file's bytes.
func realSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	j, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	w, err := j.CreateSession(testMeta(3))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			f.Fatal(err)
		}
		if err := w.AppendInbox("wf3.sa.T2", statusPayload("T1", i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Checkpoint(statusPayload("T1", 2)); err != nil {
		f.Fatal(err)
	}
	if err := w.AppendStatus(statusPayload("T1", 3)); err != nil {
		f.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wf-3", segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReadSegment locks in the segment reader's resilience contract:
// whatever bytes a segment file holds, parsing yields a state or an
// error. It never panics, never reports more torn bytes than the input
// holds, and rejects a frame whose length field exceeds maxRecordBytes
// before slicing anything for it: payloads are views of the input, so
// no record is ever allocated from a hostile length.
func FuzzReadSegment(f *testing.F) {
	seg := realSegment(f)
	st, err := parseSegment("seed", seg)
	if err != nil || !st.Done || st.StatusRecords != 1 || st.TornBytes != 0 {
		f.Fatalf("seed segment parsed to %+v, %v", st, err)
	}
	f.Add(seg)
	f.Add(append(append([]byte(nil), seg...), 0x13, 0x37, 0xde)) // torn tail
	f.Add(seg[:len(seg)-5])                                      // torn final frame
	bad := append([]byte(nil), seg...)
	bad[len(bad)-1] ^= 0xff // bad fingerprint on the done record
	f.Add(bad)
	head := append([]byte(nil), seg...)
	head[frameOverhead] ^= 0xff // bad fingerprint on the workflow record
	f.Add(head)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, recStatus}) // oversized length
	f.Add(binary.LittleEndian.AppendUint32(nil, maxRecordBytes+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := parseSegment("fuzz", data)
		if err != nil {
			if st != nil {
				t.Fatalf("error %v came with a state", err)
			}
			return
		}
		if st.TornBytes < 0 || st.TornBytes > int64(len(data)) {
			t.Fatalf("torn bytes %d outside [0, %d]", st.TornBytes, len(data))
		}
		if st.StatusRecords > len(st.Payloads) {
			t.Fatalf("%d status records but %d payloads", st.StatusRecords, len(st.Payloads))
		}
		if len(data) >= 4 && binary.LittleEndian.Uint32(data) > maxRecordBytes {
			t.Fatalf("a first frame of length %d > maxRecordBytes parsed", binary.LittleEndian.Uint32(data))
		}
	})
}
