package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testRecord(op, id string, seq int) JournalRecord {
	return JournalRecord{
		Op: op, ID: id, Seq: seq,
		Kind: "jobs", Priority: "interactive",
		Spec: json.RawMessage(`{"scenarios":[1]}`),
		At:   time.Date(2026, 8, 8, 0, 0, seq, 0, time.UTC),
	}
}

// openTestJournal opens the journal at dir with a private registry and
// closes it with the test.
func openTestJournal(t *testing.T, dir string, maxBytes int64) (*Journal, []JournalRecord, ReplayStats) {
	t.Helper()
	j, recs, stats, err := OpenJournal(dir, maxBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs, stats
}

// journalFiles lists every file in the journal directory.
func journalFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// liveIDs lists the IDs of replayed records in order.
func liveIDs(recs []JournalRecord) []string {
	ids := make([]string, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	return ids
}

// TestJournalRoundTrip pins the write-ahead contract: appended
// submissions survive close and reopen, terminal records cancel them,
// and replay preserves the original submission order.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, stats := openTestJournal(t, dir, 0)
	if len(recs) != 0 || stats != (ReplayStats{}) {
		t.Fatalf("fresh journal not empty: %v %+v", recs, stats)
	}
	for i := 1; i <= 4; i++ {
		if err := j.Append(testRecord(OpSubmit, fmt.Sprintf("j%06d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// j000002 finishes, j000003 fails: both must not replay.
	if err := j.Append(JournalRecord{Op: OpDone, ID: "j000002", ResultHash: "abc", At: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Op: OpFailed, ID: "j000003", Error: "boom", At: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.LiveTasks != 2 || st.Appends != 6 {
		t.Fatalf("stats = %+v, want 2 live / 6 appends", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, stats = openTestJournal(t, dir, 0)
	if len(recs) != 2 || stats.TerminalTasks != 2 || stats.CorruptRecords != 0 {
		t.Fatalf("replay stats = %+v", stats)
	}
	if stats.MaxSeq != 4 {
		t.Fatalf("MaxSeq = %d, want 4", stats.MaxSeq)
	}
	if ids := liveIDs(recs); len(ids) != 2 || ids[0] != "j000001" || ids[1] != "j000004" {
		t.Fatalf("live IDs = %v, want [j000001 j000004]", ids)
	}
	if string(recs[0].Spec) != `{"scenarios":[1]}` || recs[0].Kind != "jobs" || recs[0].Priority != "interactive" {
		t.Fatalf("record did not round-trip: %+v", recs[0])
	}
}

// TestJournalTornTail pins crash tolerance: a torn final frame (the
// residue of dying mid-append) ends the replay and is counted once,
// and everything before it replays.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openTestJournal(t, dir, 0)
	if err := j.Append(testRecord(OpSubmit, "j000001", 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	names, err := segmentNames(dir, journalSegPrefix, journalSegSuffix)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments: %v %v", names, err)
	}
	// A whole frame cut short: its header promises more bytes than the
	// file holds.
	torn, err := appendRecord(nil, testRecord(OpSubmit, "j000002", 2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, names[0]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-7]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, recs, stats := openTestJournal(t, dir, 0)
	if stats.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", stats.CorruptRecords)
	}
	if ids := liveIDs(recs); len(ids) != 1 || ids[0] != "j000001" {
		t.Fatalf("live IDs = %v, want [j000001]", ids)
	}
}

// TestJournalCorruptPayloadCounted pins the frame CRC: a flipped
// payload byte that still parses as a valid record is counted corrupt
// and not replayed, and the records around it replay. In a JSONL
// journal the same flip would replay silently, with a different spec.
func TestJournalCorruptPayloadCounted(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openTestJournal(t, dir, 0)
	for i := 1; i <= 3; i++ {
		if err := j.Append(testRecord(OpSubmit, fmt.Sprintf("j%06d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	names, err := segmentNames(dir, journalSegPrefix, journalSegSuffix)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments: %v %v", names, err)
	}
	path := filepath.Join(dir, names[0])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the spec of j000002 from [1] to [3]: still valid JSON.
	rec := bytes.Index(b, []byte(`"id":"j000002"`))
	if rec < 0 {
		t.Fatalf("record not found in segment %q", b)
	}
	spec := rec + bytes.Index(b[rec:], []byte(`"scenarios":[1]`))
	b[spec+len(`"scenarios":[`)] ^= 0x02
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, stats := openTestJournal(t, dir, 0)
	if stats.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1 (the flipped record)", stats.CorruptRecords)
	}
	if ids := liveIDs(recs); len(ids) != 2 || ids[0] != "j000001" || ids[1] != "j000003" {
		t.Fatalf("live IDs = %v, want [j000001 j000003]", ids)
	}
}

// TestJournalTerminalWithoutSubmit pins compaction overlap handling: a
// terminal record whose submit was already compacted away is ignored,
// and a submit arriving after its own terminal (out-of-order segments)
// stays dead.
func TestJournalTerminalWithoutSubmit(t *testing.T) {
	dir := t.TempDir()
	// Hand-write a segment: terminal for an unknown ID, then a terminal
	// BEFORE its own submit.
	var seg []byte
	for _, rec := range []JournalRecord{
		{Op: OpDone, ID: "j000009", At: time.Now().UTC()},
		{Op: OpCanceled, ID: "j000002", At: time.Now().UTC()},
		testRecord(OpSubmit, "j000001", 1),
		testRecord(OpSubmit, "j000002", 2),
	} {
		var err error
		if seg, err = appendRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(journalSegPattern, 1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, _ := openTestJournal(t, dir, 0)
	if ids := liveIDs(recs); len(ids) != 1 || ids[0] != "j000001" {
		t.Fatalf("live IDs = %v, want only j000001", ids)
	}
}

// TestJournalCompaction pins the size bound: with a tiny segment limit
// and a churn of submit+done pairs, old segments are deleted and the
// directory never accumulates history — the journal's size tracks the
// live set, not the submission count. The seq marker keeps the
// ID-sequence floor after every submission is gone.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openTestJournal(t, dir, 512)
	for i := 1; i <= 50; i++ {
		id := fmt.Sprintf("j%06d", i)
		if err := j.Append(testRecord(OpSubmit, id, i)); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(JournalRecord{Op: OpDone, ID: id, At: time.Now().UTC()}); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compactions despite churn far beyond the segment bound")
	}
	if st.LiveTasks != 0 {
		t.Fatalf("LiveTasks = %d, want 0", st.LiveTasks)
	}
	names := journalFiles(t, dir)
	if len(names) != 1 || !strings.HasSuffix(names[0], journalSegSuffix) {
		t.Fatalf("files after churn = %v, want exactly one segment", names)
	}
	info, err := os.Stat(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The active segment holds at most the records since the last
	// compaction: comfortably under a few multiples of the bound.
	if info.Size() > 2048 {
		t.Fatalf("active segment is %d bytes; compaction is not bounding it", info.Size())
	}

	// Reopening finds nothing live and one fresh segment.
	j.Close()
	_, recs, stats := openTestJournal(t, dir, 512)
	if len(recs) != 0 {
		t.Fatalf("live after full churn = %v %+v", recs, stats)
	}
	if stats.MaxSeq != 50 {
		t.Fatalf("MaxSeq = %d, want 50 (terminal records must not erase the sequence floor)", stats.MaxSeq)
	}
}

// TestJournalRefusesLegacySegment: a JSONL segment from before the
// journal moved onto frames may hold acknowledged submissions, so boot
// fails with an error naming it and leaves the directory untouched.
func TestJournalRefusesLegacySegment(t *testing.T) {
	dir := t.TempDir()
	seg, err := json.Marshal(testRecord(OpSubmit, "j000001", 1))
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "journal-00000001.wal")
	if err := os.WriteFile(legacy, append(seg, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, _, err := OpenJournal(dir, 0, nil)
	if err == nil {
		j.Close()
		t.Fatal("journal booted over a JSONL segment")
	}
	if !strings.Contains(err.Error(), legacy) {
		t.Errorf("boot error %q does not name %s", err, legacy)
	}
	if names := journalFiles(t, dir); len(names) != 1 || names[0] != filepath.Base(legacy) {
		t.Errorf("files after refused boot = %v, want only the JSONL segment", names)
	}
}

// TestJournalRefusesOversizedRecord pins the append bound: a record the
// frame walk would reject as implausible is refused and counted, never
// written.
func TestJournalRefusesOversizedRecord(t *testing.T) {
	j, _, _ := openTestJournal(t, t.TempDir(), 0)
	if err := j.Append(testRecord(OpSubmit, strings.Repeat("j", maxKeyLen+1), 1)); err == nil {
		t.Fatal("append of an over-long task ID succeeded")
	}
	if st := j.Stats(); st.AppendErrors != 1 || st.Appends != 0 || st.LiveTasks != 0 {
		t.Fatalf("stats = %+v, want one append error and nothing live", st)
	}
}
