package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adasim/internal/metrics"
)

func key(i int) string { return fmt.Sprintf("%064d", i) }

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewResultCache(2, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	o1, o2, o3 := metrics.Outcome{Steps: 1}, metrics.Outcome{Steps: 2}, metrics.Outcome{Steps: 3}
	c.Put(key(1), o1)
	c.Put(key(2), o2)
	if _, ok := c.Get(key(1)); !ok { // touch 1 so 2 is LRU
		t.Fatal("entry 1 missing")
	}
	c.Put(key(3), o3) // evicts 2
	if _, ok := c.Get(key(2)); ok {
		t.Error("LRU entry 2 not evicted")
	}
	if got, ok := c.Get(key(1)); !ok || got.Steps != 1 {
		t.Error("recently used entry 1 evicted")
	}
	if got, ok := c.Get(key(3)); !ok || got.Steps != 3 {
		t.Error("new entry 3 missing")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestCacheCounters(t *testing.T) {
	c, err := NewResultCache(8, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("unexpected hit")
	}
	c.Put(key(1), metrics.Outcome{Steps: 1})
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("expected hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss", st)
	}
}

func TestCacheDiskStore(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := metrics.NewOutcome()
	out.Steps = 321
	out.Duration = 3.21
	c.Put(key(7), out)

	// A second cache over the same dir simulates a restart: the entry
	// must come back from disk, byte-faithful including the Inf minima.
	c2, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key(7))
	if !ok {
		t.Fatal("disk entry not found after restart")
	}
	if got.Steps != 321 || got.Duration != 3.21 || got.MinTTC != out.MinTTC {
		t.Errorf("disk round trip mismatch: got %+v want %+v", got, out)
	}
	st := c2.Stats()
	if st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}
	// Now promoted into memory: a second get must not touch disk again.
	if _, ok := c2.Get(key(7)); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("disk hits after promotion = %d, want 1", st.DiskHits)
	}
}

func TestCacheEvictionKeepsDiskCopy(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(1, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), metrics.Outcome{Steps: 1})
	c.Put(key(2), metrics.Outcome{Steps: 2}) // evicts 1 from memory
	got, ok := c.Get(key(1))
	if !ok || got.Steps != 1 {
		t.Error("evicted entry not recovered from disk")
	}
}

// TestCacheSegmentDecodeRejected pins the schema-mismatch path on disk
// promotion: a CRC-clean segment record whose bytes are not an outcome
// is a miss for Get and Encoded alike (counted once under
// disk_errors.decode), its index entry is dropped so a retry is a plain
// miss, and a clean rewrite of the same key lands and survives a reopen.
func TestCacheSegmentDecodeRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`{"steps": 7,`)
	c.store.append(key(1), bad)
	c.store.append(key(2), bad)

	if _, ok := c.Get(key(1)); ok {
		t.Fatal("undecodable record served by Get")
	}
	st := c.Stats()
	if st.DiskErrors.Decode != 1 {
		t.Fatalf("disk_errors.decode = %d, want 1", st.DiskErrors.Decode)
	}
	if st.Disk.IndexEntries != 1 {
		t.Fatalf("index entries = %d, want 1 (Get must drop the record)", st.Disk.IndexEntries)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("dropped record served by Get")
	}
	if st := c.Stats(); st.DiskErrors.Decode != 1 {
		t.Fatalf("decode errors after Get retry = %d, want still 1", st.DiskErrors.Decode)
	}

	if enc, ok := c.Encoded(key(2)); ok {
		t.Fatalf("undecodable record served verbatim by Encoded: %q", enc)
	}
	st = c.Stats()
	if st.DiskErrors.Decode != 2 || st.EncodedMisses != 1 {
		t.Fatalf("after Encoded: decode = %d, encoded misses = %d, want 2 and 1",
			st.DiskErrors.Decode, st.EncodedMisses)
	}
	if st.Disk.IndexEntries != 0 {
		t.Fatalf("index entries = %d, want 0 (Encoded must drop the record)", st.Disk.IndexEntries)
	}
	if _, ok := c.Encoded(key(2)); ok {
		t.Fatal("dropped record served by Encoded")
	}
	if st := c.Stats(); st.DiskErrors.Decode != 2 || st.EncodedMisses != 2 {
		t.Fatalf("after Encoded retry: decode = %d, encoded misses = %d, want 2 and 2",
			st.DiskErrors.Decode, st.EncodedMisses)
	}

	// The key is free again: a clean Put lands in the segment store and
	// a reopened cache serves it.
	c.Put(key(1), metrics.Outcome{Steps: 2})
	c.Close()
	c2, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got, ok := c2.Get(key(1)); !ok || got.Steps != 2 {
		t.Fatalf("rewritten entry after reopen = %+v %v, want Steps=2", got, ok)
	}
}

// TestCacheUnwritableDir pins write-error accounting: when the segment
// append fails (the active segment's file handle is gone), Put still
// serves the entry from memory and counts the failure under
// disk_errors.write.
func TestCacheUnwritableDir(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Break the active segment under the store: every append now fails.
	c.store.mu.Lock()
	c.store.active.f.Close()
	c.store.mu.Unlock()
	c.Put(key(1), metrics.Outcome{Steps: 1})
	if got, ok := c.Get(key(1)); !ok || got.Steps != 1 {
		t.Fatal("memory entry must survive a disk write failure")
	}
	st := c.Stats()
	if st.DiskErrors.Write != 1 {
		t.Fatalf("disk_errors.write = %d, want 1", st.DiskErrors.Write)
	}
	// And the failure is invisible to a fresh cache: no disk entry, no
	// phantom error counts.
	c2, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Get(key(1)); ok {
		t.Fatal("entry materialized on disk despite the write failure")
	}
}

// TestCacheReadError pins read-error accounting: a segment payload that
// can no longer be read (the file shrank behind the index) is a read
// failure (not a plain miss), counts under disk_errors.read, and drops
// the record so the next lookup is a plain miss.
func TestCacheReadError(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), metrics.Outcome{Steps: 1})
	c.Close()

	// A fresh cache indexes the intact segment; then the file shrinks
	// behind its back, so the indexed payload read fails.
	c2, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "cache-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files: %v %v", segs, err)
	}
	if err := os.Truncate(segs[0], 8); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key(1)); ok {
		t.Fatal("unexpected hit")
	}
	st := c2.Stats()
	if st.DiskErrors.Read != 1 {
		t.Fatalf("disk_errors.read = %d, want 1", st.DiskErrors.Read)
	}
	// The record was dropped from the index: a retry is a plain miss.
	if _, ok := c2.Get(key(1)); ok {
		t.Fatal("dropped record served as a hit")
	}
	if st := c2.Stats(); st.DiskErrors.Read != 1 {
		t.Fatalf("read errors after drop = %d, want still 1", st.DiskErrors.Read)
	}
}

// TestCacheEncodedServesCanonicalBytes pins the warm-serve contract:
// Encoded hands out the exact bytes one json.Marshal of the outcome
// produces — whether the entry is memory-resident or promoted from
// disk — so result serves can io.Copy them without re-marshaling.
func TestCacheEncodedServesCanonicalBytes(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := metrics.NewOutcome()
	out.Steps = 55
	out.Duration = 1.25
	want, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(4), out)
	enc, ok := c.Encoded(key(4))
	if !ok {
		t.Fatal("Encoded missed a resident entry")
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("memory Encoded = %s, want %s", enc, want)
	}
	// From disk, through a fresh cache: the stored file IS the
	// canonical encoding, returned as read.
	c2, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc2, ok := c2.Encoded(key(4))
	if !ok {
		t.Fatal("Encoded missed the disk entry")
	}
	if !bytes.Equal(enc2, want) {
		t.Fatalf("disk Encoded = %s, want %s", enc2, want)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 1 {
		t.Errorf("stats after disk Encoded = %+v, want 1 hit, 1 disk hit", st)
	}
	// The promotion carried the bytes: no second disk read.
	if _, ok := c2.Encoded(key(4)); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("disk hits after promotion = %d, want 1", st.DiskHits)
	}
	if _, ok := c.Encoded(key(9)); ok {
		t.Error("Encoded hit on an absent key")
	}
}

// TestCachePutResidentSkipsWrite pins the repeat-Put fast path: keys
// are content hashes, so a Put of an already-resident key must not
// re-marshal or re-append to the segment store. The store's byte and
// index accounting standing still across the second Put proves no
// write happened.
func TestCachePutResidentSkipsWrite(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := metrics.Outcome{Steps: 11}
	c.Put(key(5), out)
	before := c.Stats().Disk
	if before == nil || before.IndexEntries != 1 || before.LiveBytes == 0 {
		t.Fatalf("first Put did not land on disk: %+v", before)
	}
	c.Put(key(5), out)
	after := c.Stats().Disk
	if after.LiveBytes != before.LiveBytes || after.IndexEntries != before.IndexEntries {
		t.Fatalf("resident Put re-appended: before %+v after %+v", before, after)
	}
	// And the memory entry still serves.
	if o, ok := c.Get(key(5)); !ok || o.Steps != 11 {
		t.Fatalf("resident entry = %+v %v, want Steps=11", o, ok)
	}
}

// TestCacheShortKey pins the validated key helper: keys shorter than
// two characters never touch the disk store but still work in memory.
func TestCacheShortKey(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(8, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.diskEligible("k") {
		t.Fatal("one-byte key must not be disk-eligible")
	}
	c.Put("k", metrics.Outcome{Steps: 9})
	if got, ok := c.Get("k"); !ok || got.Steps != 9 {
		t.Fatal("short key lost in memory")
	}
	if st := c.Stats(); st.DiskErrors != (DiskErrorStats{}) {
		t.Fatalf("short key counted as a disk error: %+v", st.DiskErrors)
	}
	if st := c.Stats(); st.Disk.IndexEntries != 0 {
		t.Fatalf("short key reached the segment store: %+v", st.Disk)
	}
}
