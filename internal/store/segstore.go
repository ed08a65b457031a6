// The binary segment store: the disk tier of the result cache. It is
// log-structured, like the task journal and in the same record frame
// (frame.go), so a disk hit is one pread and boot is one sequential
// pass per segment:
//
//   - entries append to a small set of segment files (cache-%08d.seg)
//     as frames keyed by the entry's content hash;
//
//   - an in-memory key -> (segment, offset, length) index is rebuilt at
//     boot, from a compact index sidecar (cache-%08d.idx, written when a
//     segment seals) when one matches the file, or by one header-only
//     frame walk when it does not. A torn tail — the residue of a crash
//     mid-append — is truncated and counted, never fatal, under the
//     same rule as the journal's;
//
//   - payload integrity is a CRC-32C checked on read (not at boot, so
//     index build stays a header walk): a failing record is dropped
//     from the index and counted once, so retries are plain misses;
//
//   - a drop persists as a tombstone: a record with an empty payload
//     whose CRC word covers its key. Boot applies records in segment
//     order, so a later append of the key wins. Tombstones count as
//     live bytes, so their segment outlives the records they cover;
//
//   - records are immutable under their content-hash keys and an append
//     of an indexed key is a no-op, so dead bytes only arise from
//     records dropped as corrupt or undecodable, and from duplicates a
//     boot scan finds in older directories (last copy wins). A sealed
//     segment left with no live record is deleted at once; a partly
//     dead one stays until GC drops it whole;
//
//   - with a byte budget (-cache-max-bytes) the store GCs itself: the
//     coldest sealed segments (least recently read) are dropped whole,
//     oldest first, until the store fits.
//
// Failure posture matches the cache contract: the store is an
// accelerator, never a correctness dependency. Append and read errors
// are counted (adasim_cache_* / CacheStats) and swallowed; only the
// active segment is fsynced, and only on rotation and close — losing
// the unsynced tail of the active segment in a crash costs re-execution
// of those runs, nothing else.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"adasim/internal/obs"
)

const (
	cacheSegPattern = "cache-%08d.seg"
	cacheSegPrefix  = "cache-"
	cacheSegSuffix  = ".seg"

	// cacheIdxPattern names a segment's index sidecar: the compact
	// (key, offset, length) listing written when the segment seals (and
	// for the active segment on clean close), so boot reads kilobytes of
	// index per segment instead of scanning megabytes of records. A
	// sidecar is advisory: missing, torn, or stale (size mismatch) falls
	// back to the sequential record scan.
	cacheIdxPattern = "cache-%08d.idx"
	cacheIdxSuffix  = ".idx"

	// cacheIdxMagic/cacheIdxHeader frame the sidecar: u32 magic |
	// u64 segment size | u32 record count | u32 crc32c(body). The body is
	// a fixed-width entries block — per record u32 keyLen | u32 plen |
	// u64 payload offset — followed by every key concatenated, so a load
	// turns the key block into one arena string and slices the keys out
	// of it instead of allocating each one.
	cacheIdxMagic     = 0x78646973 // "sidx"
	cacheIdxHeader    = 20
	cacheIdxEntrySize = 16

	// defaultCacheSegmentBytes bounds the active segment before rotation.
	// At the observed ~600 B per outcome this is tens of thousands of
	// entries per segment — few enough open files for millions of
	// entries, coarse enough for whole-segment GC to matter.
	defaultCacheSegmentBytes = 16 << 20
)

// SegmentStoreStats is the /healthz snapshot of the segment store,
// nested under CacheStats.Disk when the disk tier is enabled.
type SegmentStoreStats struct {
	// Segments is the current segment-file count (active included).
	Segments int `json:"segments"`
	// IndexEntries is the in-memory index size: distinct keys resolvable
	// on disk.
	IndexEntries int `json:"index_entries"`
	// LiveBytes and DeadBytes partition the on-disk bytes into records
	// the index still points at and superseded/corrupt residue, which
	// stays until its segment is reclaimed or GC'd.
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	// MaxBytes is the configured GC budget; zero means unbounded.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// Compactions counts sealed segments deleted because no index entry
	// pointed into them any more.
	Compactions int64 `json:"compactions"`
	// GCSegments and GCBytes count whole cold segments (and their bytes)
	// dropped to stay under MaxBytes.
	GCSegments int64 `json:"gc_segments"`
	GCBytes    int64 `json:"gc_bytes"`
	// CorruptRecords counts torn tails truncated at boot and records
	// dropped on a CRC mismatch; each is counted once.
	CorruptRecords int64 `json:"corrupt_records"`
}

// segRef locates one record's payload: the owning segment, the offset
// of its CRC word, and the payload length.
type segRef struct {
	seg  *cacheSegment
	off  int64
	plen int32
}

// cacheSegment is one on-disk segment file. size/live/keys/refs are
// guarded by the owning segStore's mu; lastRead is atomic so readers
// bump it under the read lock.
type cacheSegment struct {
	seq  int
	f    *os.File
	size int64
	live int64 // bytes of records the index still points at
	// keys and refs list every record in file order (superseded copies
	// and tombstones included) — the in-memory image of the index
	// sidecar, and what removeSegmentLocked walks to find the records
	// here.
	keys   []string
	refs   []segRef
	sealed bool

	// lastRead is the store's logical read clock at this segment's most
	// recent read — the GC coldness order.
	lastRead atomic.Int64
}

// segStore is the log-structured segment store. Reads resolve the index
// and pread the payload under the read lock; appends, drops, and GC
// serialize under the write lock. It lives entirely outside the
// ResultCache's LRU mutex, so a slow disk cannot stall memory hits.
type segStore struct {
	mu       sync.RWMutex
	dir      string
	segMax   int64
	maxBytes int64
	met      *cacheMetrics

	segs   map[int]*cacheSegment
	active *cacheSegment
	index  map[string]segRef
	bytes  int64 // sum of segment sizes

	clock atomic.Int64 // logical read clock feeding segment coldness

	closed bool

	scratch []byte // append record assembly buffer, guarded by mu
}

// openSegStore opens (creating if needed) the segment store at dir and
// rebuilds the index with one sequential header scan per segment.
// segMax <= 0 means the default segment bound; maxBytes <= 0 means no
// GC budget.
func openSegStore(dir string, segMax, maxBytes int64, met *cacheMetrics) (*segStore, error) {
	if segMax <= 0 {
		segMax = defaultCacheSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating cache dir: %w", err)
	}
	s := &segStore{
		dir:      dir,
		segMax:   segMax,
		maxBytes: maxBytes,
		met:      met,
		segs:     make(map[int]*cacheSegment),
	}
	names, err := segmentNames(dir, cacheSegPrefix, cacheSegSuffix)
	if err != nil {
		return nil, err
	}
	// Open and stat everything first so the index map can be presized:
	// growing a map through 1e5+ inserts costs more in rehashing than
	// the hashing itself.
	var scan []*cacheSegment
	var totalBytes int64
	for _, name := range names {
		var seq int
		if _, err := fmt.Sscanf(name, cacheSegPattern, &seq); err != nil {
			continue // foreign file matching the glob loosely; leave it be
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0o644)
		if err != nil {
			for _, seg := range scan {
				seg.f.Close()
			}
			return nil, fmt.Errorf("store: opening cache segment %s: %w", name, err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			for _, seg := range scan {
				seg.f.Close()
			}
			return nil, fmt.Errorf("store: stat cache segment %s: %w", name, err)
		}
		scan = append(scan, &cacheSegment{seq: seq, f: f, size: info.Size()})
		totalBytes += info.Size()
	}
	// ~400 B is a conservative floor for one record (framing + key +
	// marshaled outcome), so this overshoots slightly rather than rehash.
	s.index = make(map[string]segRef, totalBytes/400)
	// Each segment loads from its index sidecar when one is present and
	// matches the file, and falls back to the sequential record scan
	// otherwise — writing the sidecar it was missing so the next boot
	// skips the scan. The index merge runs in ascending-seq order so the
	// last record for a duplicated key, or its tombstone, wins exactly as
	// a single sequential pass would resolve it.
	for i, seg := range scan { // scan is name-sorted: ascending seq
		// Only the segment resuming as active needs refs kept around (its
		// sidecar is rewritten at seal/close); sealed ones are immutable.
		buildRefs := i == len(scan)-1
		if !s.loadSidecar(seg, buildRefs) {
			if err := s.scanSegment(seg); err != nil {
				for _, g := range scan {
					g.f.Close()
				}
				return nil, err
			}
			s.writeSidecar(seg)
			for j, key := range seg.keys {
				s.indexRecord(key, seg.refs[j])
			}
			if !buildRefs {
				seg.refs = nil
			}
		}
		s.segs[seg.seq] = seg
		s.bytes += seg.size
	}
	s.removeStraySidecars()
	// The highest-numbered segment resumes as the active one; a fresh
	// store starts at segment 1. Lower-numbered survivors are sealed.
	maxSeq := 0
	for seq := range s.segs {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	for seq, seg := range s.segs {
		seg.sealed = seq != maxSeq
	}
	if maxSeq == 0 {
		seg, err := s.createSegment(1)
		if err != nil {
			return nil, err
		}
		s.segs[1] = seg
		s.active = seg
	} else {
		s.active = s.segs[maxSeq]
	}
	s.gcLocked()
	s.publishGaugesLocked()
	return s, nil
}

// indexRecord applies one boot record, already counted live in its
// segment, to the index: a payload record is indexed, a tombstone (plen
// 0) unindexes its key, and the record either displaces turns dead.
// Boot-only.
func (s *segStore) indexRecord(key string, ref segRef) {
	if old, ok := s.index[key]; ok {
		old.seg.live -= frameSize(key, int(old.plen))
	}
	if ref.plen == 0 {
		delete(s.index, key)
	} else {
		s.index[key] = ref
	}
}

// scanSegment walks one segment's frames header-only (CRC
// verification happens per read; only a tombstone's is checked here). A
// torn tail truncates the segment at the last whole frame. It fills
// seg.keys/seg.refs for the caller's serial index merge and counts
// every record live; the merge turns displaced ones dead. This is the
// fallback path: sidecar-less segments only, i.e. the segment that was
// active at a crash plus anything older than the sidecar format.
func (s *segStore) scanSegment(seg *cacheSegment) error {
	seg.keys = make([]string, 0, int(seg.size/400))
	seg.refs = make([]segRef, 0, int(seg.size/400))
	end, corrupt := walkFrames(seg.f, seg.size, false, func(fr frame) {
		seg.refs = append(seg.refs, segRef{seg: seg, off: fr.off + 8 + int64(len(fr.key)), plen: int32(fr.plen)})
		seg.live += frameSize(fr.key, fr.plen)
		seg.keys = append(seg.keys, fr.key)
	})
	s.met.corrupt.Add(uint64(corrupt))
	if end < seg.size {
		if err := seg.f.Truncate(end); err != nil {
			return fmt.Errorf("store: truncating torn cache segment: %w", err)
		}
	}
	seg.size = end
	return nil
}

// idxPath names a segment's sidecar file.
func (s *segStore) idxPath(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf(cacheIdxPattern, seq))
}

// writeSidecar persists seg's record listing so the next boot loads it
// instead of scanning the segment. Best-effort: a failed or torn write
// is detected by the CRC at load time and falls back to the scan.
// Callers hold s.mu or are single-threaded (boot).
func (s *segStore) writeSidecar(seg *cacheSegment) {
	keyBytes := 0
	for _, key := range seg.keys {
		keyBytes += len(key)
	}
	out := make([]byte, 0, cacheIdxHeader+cacheIdxEntrySize*len(seg.keys)+keyBytes)
	out = out[:cacheIdxHeader] // header backfilled once the body CRC is known
	for i, key := range seg.keys {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(key)))
		out = binary.LittleEndian.AppendUint32(out, uint32(seg.refs[i].plen))
		out = binary.LittleEndian.AppendUint64(out, uint64(seg.refs[i].off))
	}
	for _, key := range seg.keys {
		out = append(out, key...)
	}
	binary.LittleEndian.PutUint32(out, cacheIdxMagic)
	binary.LittleEndian.PutUint64(out[4:], uint64(seg.size))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(seg.keys)))
	binary.LittleEndian.PutUint32(out[16:], crc32.Checksum(out[cacheIdxHeader:], crcCastagnoli))
	if err := os.WriteFile(s.idxPath(seg.seq), out, 0o644); err != nil {
		s.met.errWrite.Inc()
		os.Remove(s.idxPath(seg.seq)) // half-written sidecars fail CRC anyway
	}
}

// loadSidecar rebuilds seg's portion of the index from its sidecar:
// seg.keys, seg.live, and — entries applied straight to s.index in
// record order, so the caller's only job is ordering segments by seq.
// buildRefs additionally materializes seg.refs, needed only for the
// segment that resumes as active (its sidecar is rewritten on
// seal/close). Returns false — with no state touched — when the
// sidecar is missing, malformed, or stale (written for a different
// segment size): the caller scans the segment instead.
func (s *segStore) loadSidecar(seg *cacheSegment, buildRefs bool) bool {
	b, err := os.ReadFile(s.idxPath(seg.seq))
	if err != nil || len(b) < cacheIdxHeader {
		return false
	}
	if binary.LittleEndian.Uint32(b) != cacheIdxMagic ||
		int64(binary.LittleEndian.Uint64(b[4:])) != seg.size {
		return false
	}
	count := int(binary.LittleEndian.Uint32(b[12:]))
	body := b[cacheIdxHeader:]
	if count < 0 || count > len(body)/cacheIdxEntrySize ||
		crc32.Checksum(body, crcCastagnoli) != binary.LittleEndian.Uint32(b[16:]) {
		return false
	}
	entries, keyBlock := body[:count*cacheIdxEntrySize], body[count*cacheIdxEntrySize:]
	// Validation pass: nothing is inserted until the whole sidecar
	// checks out, so a bad one rolls back to the scan with no residue.
	keyBytes := 0
	for i := 0; i < count; i++ {
		e := entries[i*cacheIdxEntrySize:]
		keyLen := int(binary.LittleEndian.Uint32(e))
		plen := int64(binary.LittleEndian.Uint32(e[4:]))
		roff := int64(binary.LittleEndian.Uint64(e[8:]))
		// roff is bounded by seg.size before the sum, so a huge offset
		// cannot overflow past the end check.
		if keyLen < 1 || keyLen > maxKeyLen ||
			roff < int64(keyLen)+8 || roff > seg.size || roff+4+plen > seg.size {
			return false
		}
		keyBytes += keyLen
	}
	if keyBytes != len(keyBlock) {
		return false
	}
	// Build pass. One arena string backs every key — for 1e5+ entries the
	// per-key allocations (and the GC marking they feed) otherwise rival
	// the index-insert cost itself.
	arena := string(keyBlock)
	seg.keys = make([]string, 0, count)
	if buildRefs {
		seg.refs = make([]segRef, 0, count)
	}
	pos := 0
	for i := 0; i < count; i++ {
		e := entries[i*cacheIdxEntrySize:]
		keyLen := int(binary.LittleEndian.Uint32(e))
		ref := segRef{
			seg:  seg,
			off:  int64(binary.LittleEndian.Uint64(e[8:])),
			plen: int32(binary.LittleEndian.Uint32(e[4:])),
		}
		key := arena[pos : pos+keyLen]
		pos += keyLen
		seg.keys = append(seg.keys, key)
		if buildRefs {
			seg.refs = append(seg.refs, ref)
		}
		seg.live += frameSize(key, int(ref.plen))
		s.indexRecord(key, ref)
	}
	return true
}

// removeStraySidecars deletes sidecar files whose segment no longer
// exists — residue of a crash between segment unlink and sidecar
// unlink. Boot-only.
func (s *segStore) removeStraySidecars() {
	matches, err := filepath.Glob(filepath.Join(s.dir, cacheSegPrefix+"*"+cacheIdxSuffix))
	if err != nil {
		return
	}
	for _, path := range matches {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(path), cacheIdxPattern, &seq); err != nil {
			continue
		}
		if _, ok := s.segs[seq]; !ok {
			os.Remove(path)
		}
	}
}

// createSegment creates a fresh, empty segment file.
func (s *segStore) createSegment(seq int) (*cacheSegment, error) {
	name := fmt.Sprintf(cacheSegPattern, seq)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating cache segment %s: %w", name, err)
	}
	return &cacheSegment{seq: seq, f: f}, nil
}

// read returns the payload stored under key, CRC-verified. A mismatch
// drops the record from the index (counted once) and reads as a miss.
// A closed store reads as a plain miss: requests racing Drain/Close
// must not touch the released descriptors (and inflate the disk-error
// counters on every shutdown doing so).
func (s *segStore) read(key string) ([]byte, bool) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false
	}
	ref, ok := s.index[key]
	if !ok {
		s.mu.RUnlock()
		return nil, false
	}
	buf := make([]byte, 4+int(ref.plen))
	_, err := ref.seg.f.ReadAt(buf, ref.off)
	ref.seg.lastRead.Store(s.clock.Add(1))
	s.mu.RUnlock()
	if err != nil {
		s.drop(key, ref, s.met.errRead)
		return nil, false
	}
	if crc32.Checksum(buf[4:], crcCastagnoli) != binary.LittleEndian.Uint32(buf[:4]) {
		s.drop(key, ref, s.met.corrupt)
		return nil, false
	}
	return buf[4:], true
}

// drop removes key's index entry if it still points at ref, turning the
// record into dead bytes, and counts the fault in c. Only the reader
// that removes the entry counts, so readers racing on one bad record
// count it once. A no-op after close: a read that raced shutdown must
// not mutate the index behind the released store.
func (s *segStore) drop(key string, ref segRef, c *obs.Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if cur, ok := s.index[key]; ok && cur == ref {
		c.Inc()
		s.unindexLocked(key, ref)
	}
}

// deleteKey removes key's index entry regardless of which record it
// points at — the cache uses it when canonical bytes fail to decode
// (a schema mismatch, not a storage fault, so the CRC passed). A no-op
// after close, like drop.
func (s *segStore) deleteKey(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if ref, ok := s.index[key]; ok {
		s.unindexLocked(key, ref)
	}
}

// unindexLocked deletes key's index entry, which points at ref. A sealed
// segment left with no live record is deleted at once: nothing can read
// it again, and appends only go to the active segment. Otherwise the
// record stays on disk, and a tombstone keeps the next boot from
// indexing it again. s.mu must be held.
func (s *segStore) unindexLocked(key string, ref segRef) {
	delete(s.index, key)
	ref.seg.live -= frameSize(key, int(ref.plen))
	if !s.reclaimLocked(ref.seg) {
		s.writeLocked(key, nil)
	}
	s.publishGaugesLocked()
}

// reclaimLocked deletes seg if it is sealed and holds no live record,
// counting it as a compaction, and reports whether it did. s.mu must be
// held.
func (s *segStore) reclaimLocked(seg *cacheSegment) bool {
	if !seg.sealed || seg.live > 0 {
		return false
	}
	s.removeSegmentLocked(seg)
	s.met.compactions.Inc()
	return true
}

// append stores payload under key. Keys are content hashes, so a key
// already indexed is a no-op. An empty payload would read back as a
// tombstone and is refused. Failures are counted and swallowed.
func (s *segStore) append(key string, payload []byte) {
	if len(payload) == 0 || !frameFits(key, len(payload)) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if _, ok := s.index[key]; ok {
		return
	}
	if ref, ok := s.writeLocked(key, payload); ok {
		s.index[key] = ref
		s.gcLocked()
		s.publishGaugesLocked()
	}
}

// writeLocked appends one record to the active segment, rotating first
// when it would overflow the segment bound: payload under key, or a
// tombstone for key when payload is empty. It reports where the record
// landed and whether the write succeeded. s.mu must be held.
func (s *segStore) writeLocked(key string, payload []byte) (segRef, bool) {
	total := frameSize(key, len(payload))
	if s.active.size > 0 && s.active.size+total > s.segMax && !s.rotateLocked() {
		return segRef{}, false
	}
	if cap(s.scratch) < int(total) {
		s.scratch = make([]byte, 0, int(total))
	}
	b := appendFrame(s.scratch[:0], key, payload)
	s.scratch = b[:0]
	if _, err := s.active.f.WriteAt(b, s.active.size); err != nil {
		// A partial tail write is overwritten by the next append (size
		// did not advance) or truncated by the next boot scan.
		s.met.errWrite.Inc()
		return segRef{}, false
	}
	ref := segRef{seg: s.active, off: s.active.size + 8 + int64(len(key)), plen: int32(len(payload))}
	s.active.size += total
	s.active.live += total
	s.active.keys = append(s.active.keys, key)
	s.active.refs = append(s.active.refs, ref)
	s.bytes += total
	return ref, true
}

// rotateLocked seals the active segment (fsync — the store's only
// durability point), writes its index sidecar, and opens the next one.
// A sealed segment with no live record left is deleted at once. s.mu
// must be held.
func (s *segStore) rotateLocked() bool {
	if err := s.active.f.Sync(); err != nil {
		s.met.errWrite.Inc()
	}
	seg, err := s.createSegment(s.active.seq + 1)
	if err != nil {
		s.met.errWrite.Inc()
		return false // keep appending to the oversized active segment
	}
	sealed := s.active
	sealed.sealed = true
	s.writeSidecar(sealed)
	s.segs[seg.seq] = seg
	s.active = seg
	s.reclaimLocked(sealed)
	return true
}

// gcLocked enforces the byte budget by dropping whole cold sealed
// segments — least recently read first — until the store fits. The
// active segment is never dropped. s.mu must be held.
func (s *segStore) gcLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes {
		var coldest *cacheSegment
		for _, seg := range s.segs {
			if !seg.sealed {
				continue
			}
			if coldest == nil ||
				seg.lastRead.Load() < coldest.lastRead.Load() ||
				(seg.lastRead.Load() == coldest.lastRead.Load() && seg.seq < coldest.seq) {
				coldest = seg
			}
		}
		if coldest == nil {
			return
		}
		s.met.gcSegments.Inc()
		s.met.gcBytes.Add(uint64(coldest.size))
		s.removeSegmentLocked(coldest)
	}
}

// removeSegmentLocked unlinks a segment and every index entry still
// pointing into it. s.mu must be held.
func (s *segStore) removeSegmentLocked(seg *cacheSegment) {
	for _, key := range seg.keys {
		if ref, ok := s.index[key]; ok && ref.seg == seg {
			delete(s.index, key)
		}
	}
	seg.f.Close()
	os.Remove(filepath.Join(s.dir, fmt.Sprintf(cacheSegPattern, seg.seq)))
	os.Remove(s.idxPath(seg.seq))
	delete(s.segs, seg.seq)
	s.bytes -= seg.size
	s.publishGaugesLocked()
}

// stats snapshots the store under the read lock.
func (s *segStore) stats() SegmentStoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := SegmentStoreStats{
		Segments:       len(s.segs),
		IndexEntries:   len(s.index),
		MaxBytes:       s.maxBytes,
		Compactions:    int64(s.met.compactions.Value()),
		GCSegments:     int64(s.met.gcSegments.Value()),
		GCBytes:        int64(s.met.gcBytes.Value()),
		CorruptRecords: int64(s.met.corrupt.Value()),
	}
	for _, seg := range s.segs {
		st.LiveBytes += seg.live
		st.DeadBytes += seg.size - seg.live
	}
	return st
}

// publishGaugesLocked refreshes the registry gauges from the in-memory
// state. s.mu must be held (read or write side callers both mutate
// under the write lock, so this only runs write-locked).
func (s *segStore) publishGaugesLocked() {
	s.met.segments.Set(int64(len(s.segs)))
	s.met.indexEntries.Set(int64(len(s.index)))
	var live int64
	for _, seg := range s.segs {
		live += seg.live
	}
	s.met.segLiveBytes.Set(live)
	s.met.segDeadBytes.Set(s.bytes - live)
}

// close syncs the active segment, writes its sidecar (so a clean
// shutdown makes the next boot sidecar-only), and releases the file
// handles. A failed sync counts as a write error, as on rotation.
// Idempotent.
func (s *segStore) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if err := s.active.f.Sync(); err != nil {
		s.met.errWrite.Inc()
	}
	s.writeSidecar(s.active)
	for _, seg := range s.segs {
		seg.f.Close()
	}
}
