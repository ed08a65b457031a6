// The write-ahead task journal: the durability layer beneath the task
// runtime. Every accepted submission is appended (and fsynced) before
// the task becomes visible in the queue, and every terminal transition
// (done/failed/canceled) is appended when the record finalizes — so the
// set of non-terminal submissions is always recoverable from disk. On
// boot the dispatcher replays the journal and re-submits the survivors
// in their original submission order; runs whose outcomes are already in
// the content-addressed disk cache are served from it, so recovery is
// mostly cache hits.
//
// Layout: a journal directory holds append-only segments named
// journal-%08d.seg, replayed in name order. Each record is one frame
// (frame.go) keyed by its task ID, with the JSON record as the payload,
// so a flipped byte fails the frame's CRC and is counted, never
// replayed. Terminal records cancel submit records with the same ID.
// When the active segment outgrows its size bound the journal compacts:
// the still-live submit records are rewritten into a fresh segment
// (write temp, fsync, rename) and the old segments are deleted, so
// journal size is bounded by the live task set plus one segment, not by
// submission history. A torn tail — the expected residue of a crash
// mid-append — ends the segment's replay and is counted, never fatal.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"adasim/internal/obs"
)

// Journal ops. Submit is the only op carrying a spec; done/failed/
// canceled are the terminal transitions of the task state machine; seq
// is a compaction marker preserving the ID-sequence floor after the
// submissions that established it are compacted away (so post-recovery
// IDs never collide with pre-crash ones).
const (
	OpSubmit   = "submit"
	OpDone     = "done"
	OpFailed   = "failed"
	OpCanceled = "canceled"
	opSeq      = "seq"
)

// JournalRecord is one journal record: the payload of one frame.
type JournalRecord struct {
	Op string `json:"op"`
	ID string `json:"id"`
	// Seq is the dispatcher submission sequence number (submit only); it
	// restores the ID counter on recovery so new IDs never collide with
	// journaled ones.
	Seq int `json:"seq,omitempty"`
	// Kind is the plural route segment of the task's kind (submit only).
	Kind string `json:"kind,omitempty"`
	// Priority is the resolved scheduling class (submit only).
	Priority string `json:"priority,omitempty"`
	// Spec is the wire JSON of the spec as submitted (submit only); it
	// round-trips through the kind's strict Decode on replay.
	Spec json.RawMessage `json:"spec,omitempty"`
	// ResultHash fingerprints a done task's wire-shaped result (the
	// SHA-256 of its results-endpoint encoding), so recovered re-runs can
	// be audited against the pre-crash outcome.
	ResultHash string `json:"result_hash,omitempty"`
	// Error is the failure message (failed only).
	Error string    `json:"error,omitempty"`
	At    time.Time `json:"at"`
}

// key is the record's frame key: its task ID, or its op for the ID-less
// seq marker.
func (r JournalRecord) key() string {
	if r.ID == "" {
		return r.Op
	}
	return r.ID
}

// ReplayStats summarizes one journal replay.
type ReplayStats struct {
	// Segments is how many segment files were scanned.
	Segments int
	// TerminalTasks is how many journaled submissions were already
	// terminal (done/failed/canceled) and therefore not recovered.
	TerminalTasks int
	// CorruptRecords counts torn tails (one per segment), frames whose
	// CRC fails, and CRC-clean records that do not decode; they are
	// skipped, never fatal.
	CorruptRecords int
	// MaxSeq is the highest submission sequence number seen.
	MaxSeq int
}

// JournalStats is a point-in-time snapshot of the journal counters,
// served on /healthz when journaling is enabled.
type JournalStats struct {
	Dir          string `json:"dir"`
	LiveTasks    int    `json:"live_tasks"`
	SegmentBytes int64  `json:"segment_bytes"`
	Appends      int64  `json:"appends"`
	AppendErrors int64  `json:"append_errors"`
	Compactions  int64  `json:"compactions"`
}

// Journal is the append-only write-ahead task journal. It is safe for
// concurrent use; the dispatcher serializes appends under its own lock
// anyway so journal order matches submission order.
type Journal struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64

	seg      *os.File
	segSeq   int
	segBytes int64

	// live holds the submit record of every non-terminal task, in
	// submission order — exactly what compaction rewrites.
	live      map[string]JournalRecord
	liveOrder []string
	// maxSeq is the highest submission sequence ever journaled; compaction
	// persists it as a seq marker so the floor survives history deletion.
	maxSeq int

	// Counters live in the obs registry (see newJournalMetrics): one
	// source of truth behind JournalStats and the adasim_journal_*
	// series, including the append+fsync latency histogram.
	met    *journalMetrics
	closed bool
}

const (
	// journalMaxSegmentBytes bounds the active segment before compaction
	// rewrites the live set into a fresh one: at a few hundred bytes per
	// record, thousands of submissions per compaction cycle.
	journalMaxSegmentBytes = 1 << 20

	journalSegPrefix  = "journal-"
	journalSegPattern = "journal-%08d.seg"
	journalSegSuffix  = ".seg"
)

// OpenJournal opens (creating if needed) the journal at dir, replays the
// existing segments, compacts the live records into a fresh segment, and
// returns the journal plus the live submissions in original order. The
// replayed records are the recovery work list; the caller re-submits
// them. maxBytes <= 0 means the default segment bound. Counters record
// into reg (nil means a private registry).
func OpenJournal(dir string, maxBytes int64, reg *obs.Registry) (*Journal, []JournalRecord, ReplayStats, error) {
	if maxBytes <= 0 {
		maxBytes = journalMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, ReplayStats{}, fmt.Errorf("store: creating journal dir: %w", err)
	}
	recs, stats, maxSegSeq, err := replaySegments(dir)
	if err != nil {
		return nil, nil, stats, err
	}
	j := &Journal{
		dir:      dir,
		maxBytes: maxBytes,
		live:     make(map[string]JournalRecord, len(recs)),
		maxSeq:   stats.MaxSeq,
		met:      newJournalMetrics(reg),
	}
	for _, r := range recs {
		j.live[r.ID] = r
		j.liveOrder = append(j.liveOrder, r.ID)
	}
	// Compact on open: boot is the one moment the live set is known to be
	// exactly the replayed records, so the rewritten segment both bounds
	// the journal and proves the directory is writable before any
	// submission is accepted.
	if err := j.compactLocked(maxSegSeq + 1); err != nil {
		return nil, nil, stats, err
	}
	return j, recs, stats, nil
}

// replaySegments replays every segment in name (= sequence) order and
// returns the live submit records, the replay stats, and the highest
// segment sequence number on disk. A submit enters the live set and a
// terminal op removes it; a terminal for an unknown ID (compacted
// away) and a duplicate submit (compaction overlap after an
// interrupted cleanup) are ignored.
func replaySegments(dir string) ([]JournalRecord, ReplayStats, int, error) {
	// A JSONL segment from before the journal moved onto frames may
	// hold acknowledged submissions that this version cannot replay:
	// refuse to boot rather than compact them away.
	legacy, err := segmentNames(dir, journalSegPrefix, ".wal")
	if err != nil {
		return nil, ReplayStats{}, 0, err
	}
	if len(legacy) > 0 {
		return nil, ReplayStats{}, 0, fmt.Errorf("store: journal segment %s is pre-frame JSONL, which this version no longer reads; boot it once with an older release to rewrite it", filepath.Join(dir, legacy[0]))
	}
	names, err := segmentNames(dir, journalSegPrefix, journalSegSuffix)
	if err != nil {
		return nil, ReplayStats{}, 0, err
	}
	stats := ReplayStats{Segments: len(names)}
	live := make(map[string]JournalRecord)
	terminal := make(map[string]bool)
	var order []string
	apply := func(rec JournalRecord, ok bool) {
		switch {
		// A key past the frame bound could not be rewritten by compaction.
		case !ok || rec.ID == "" && rec.Op != opSeq || len(rec.key()) > maxKeyLen:
			stats.CorruptRecords++
		case rec.Op == opSeq:
			stats.MaxSeq = max(stats.MaxSeq, rec.Seq)
		case rec.Op == OpSubmit:
			stats.MaxSeq = max(stats.MaxSeq, rec.Seq)
			if _, dup := live[rec.ID]; !dup && !terminal[rec.ID] {
				live[rec.ID] = rec
				order = append(order, rec.ID)
			}
		case rec.Op == OpDone || rec.Op == OpFailed || rec.Op == OpCanceled:
			if _, ok := live[rec.ID]; ok {
				delete(live, rec.ID)
				stats.TerminalTasks++
			}
			terminal[rec.ID] = true
		default:
			stats.CorruptRecords++
		}
	}
	maxSegSeq := 0
	for _, name := range names {
		var segSeq int
		if _, err := fmt.Sscanf(name, journalSegPrefix+"%d", &segSeq); err == nil {
			maxSegSeq = max(maxSegSeq, segSeq)
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, stats, 0, fmt.Errorf("store: opening journal segment: %w", err)
		}
		corrupt, err := readSegment(f, apply)
		f.Close()
		if err != nil {
			return nil, stats, 0, fmt.Errorf("store: reading journal segment %s: %w", name, err)
		}
		stats.CorruptRecords += corrupt
	}
	recs := make([]JournalRecord, 0, len(live))
	for _, id := range order {
		if rec, ok := live[id]; ok {
			recs = append(recs, rec)
		}
	}
	return recs, stats, maxSegSeq, nil
}

// readSegment feeds one framed segment's records to apply and returns
// the walk's corrupt count. A CRC-clean payload that does not decode
// goes to apply as corrupt. The payload is authoritative: the frame key
// only repeats its ID.
func readSegment(f *os.File, apply func(JournalRecord, bool)) (int, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	_, corrupt := walkFrames(f, info.Size(), true, func(fr frame) {
		var rec JournalRecord
		err := json.Unmarshal(fr.payload, &rec)
		apply(rec, err == nil)
	})
	return corrupt, nil
}

// appendRecord appends rec's frame to b.
func appendRecord(b []byte, rec JournalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return b, fmt.Errorf("store: encoding journal record: %w", err)
	}
	if !frameFits(rec.key(), len(payload)) {
		return b, fmt.Errorf("store: journal record %q is %d bytes, past the frame bound", rec.key(), len(payload))
	}
	return appendFrame(b, rec.key(), payload), nil
}

// Append writes one record to the active segment and fsyncs it — the
// write-ahead contract: when Append returns nil the record survives a
// crash. It also maintains the live set and compacts when the active
// segment outgrows its bound.
func (j *Journal) Append(rec JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("store: journal closed")
	}
	start := time.Now()
	err := j.appendLocked(rec)
	j.met.appendLat.Observe(time.Since(start).Seconds())
	if err != nil {
		j.met.appendErrors.Inc()
		return err
	}
	j.met.appends.Inc()
	switch rec.Op {
	case OpSubmit:
		j.maxSeq = max(j.maxSeq, rec.Seq)
		if _, ok := j.live[rec.ID]; !ok {
			j.live[rec.ID] = rec
			j.liveOrder = append(j.liveOrder, rec.ID)
		}
	default:
		delete(j.live, rec.ID)
	}
	j.met.liveTasks.Set(int64(len(j.live)))
	j.met.segmentBytes.Set(j.segBytes)
	if j.segBytes > j.maxBytes {
		// Compaction failure is not fatal to the append: the record is
		// durable in the oversized segment; the next append retries.
		if err := j.compactLocked(j.segSeq + 1); err != nil {
			j.met.appendErrors.Inc()
		}
	}
	return nil
}

func (j *Journal) appendLocked(rec JournalRecord) error {
	b, err := appendRecord(nil, rec)
	if err != nil {
		return err
	}
	if _, err := j.seg.Write(b); err != nil {
		return fmt.Errorf("store: appending journal record: %w", err)
	}
	if err := j.seg.Sync(); err != nil {
		return fmt.Errorf("store: syncing journal: %w", err)
	}
	j.segBytes += int64(len(b))
	return nil
}

// compactLocked rewrites the live submit records into segment segSeq
// (write temp, fsync, rename — crash-safe at every step) and deletes the
// older segments. j.mu must be held.
func (j *Journal) compactLocked(segSeq int) error {
	old, err := segmentNames(j.dir, journalSegPrefix, journalSegSuffix)
	if err != nil {
		return err
	}
	// The seq marker leads the segment: the ID-sequence floor must
	// survive even when every submission that established it is gone.
	var b []byte
	if j.maxSeq > 0 {
		if b, err = appendRecord(b, JournalRecord{Op: opSeq, Seq: j.maxSeq, At: time.Now().UTC()}); err != nil {
			return err
		}
	}
	// Prune IDs whose records went terminal while in the order list.
	kept := j.liveOrder[:0]
	for _, id := range j.liveOrder {
		rec, ok := j.live[id]
		if !ok {
			continue
		}
		kept = append(kept, id)
		if b, err = appendRecord(b, rec); err != nil {
			return err
		}
	}
	j.liveOrder = kept
	name := fmt.Sprintf(journalSegPattern, segSeq)
	tmp, err := os.CreateTemp(j.dir, name+".tmp")
	if err != nil {
		return fmt.Errorf("store: creating journal segment: %w", err)
	}
	if _, err = tmp.Write(b); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(j.dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing journal segment: %w", err)
	}
	// The compacted segment is durable; the active handle moves to it in
	// append mode and the superseded segments can go. A crash between the
	// rename and the deletes leaves duplicate submits, which replay
	// dedupes by ID.
	if j.seg != nil {
		j.seg.Close()
	}
	seg, err := os.OpenFile(filepath.Join(j.dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening journal segment: %w", err)
	}
	j.seg = seg
	j.segSeq = segSeq
	j.segBytes = int64(len(b))
	j.met.compactions.Inc()
	j.met.liveTasks.Set(int64(len(j.live)))
	j.met.segmentBytes.Set(j.segBytes)
	for _, o := range old {
		if o != name {
			os.Remove(filepath.Join(j.dir, o))
		}
	}
	return nil
}

// Stats snapshots the journal counters from their registry series (the
// same ones /metrics exposes).
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Dir:          j.dir,
		LiveTasks:    len(j.live),
		SegmentBytes: j.segBytes,
		Appends:      int64(j.met.appends.Value()),
		AppendErrors: int64(j.met.appendErrors.Value()),
		Compactions:  int64(j.met.compactions.Value()),
	}
}

// Close releases the active segment. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.seg != nil {
		return j.seg.Close()
	}
	return nil
}
