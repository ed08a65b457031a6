package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openTestStore builds a segment store with a private metrics registry
// and closes it with the test.
func openTestStore(t *testing.T, dir string, segMax, maxBytes int64) *segStore {
	t.Helper()
	s, err := openSegStore(dir, segMax, maxBytes, newCacheMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

// segFiles lists the store's segment files.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "cache-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestSegStoreTornTail pins SIGKILL-style crash recovery: garbage after
// the last whole record (the residue of a crash mid-append) is
// truncated at boot and counted once; every whole record survives and
// the store keeps appending.
func TestSegStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0, 0)
	for i := 0; i < 3; i++ {
		s.append(key(i), []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	s.close()

	// A torn append: a header that parses as an impossible record
	// length, then trailing junk.
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want 1", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	goodSize, _ := f.Seek(0, 2)
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTestStore(t, dir, 0, 0)
	for i := 0; i < 3; i++ {
		got, ok := s2.read(key(i))
		if !ok || !bytes.Equal(got, []byte(fmt.Sprintf(`{"n":%d}`, i))) {
			t.Fatalf("record %d after torn-tail recovery = %q %v", i, got, ok)
		}
	}
	if st := s2.stats(); st.CorruptRecords != 1 {
		t.Fatalf("corrupt records = %d, want 1 (the torn tail)", st.CorruptRecords)
	}
	if info, err := os.Stat(segs[0]); err != nil || info.Size() != goodSize {
		t.Fatalf("segment size = %d %v, want truncated back to %d", info.Size(), err, goodSize)
	}
	// The healed store accepts appends and a third boot sees everything.
	s2.append(key(3), []byte(`{"n":3}`))
	s2.close()
	s3 := openTestStore(t, dir, 0, 0)
	if got, ok := s3.read(key(3)); !ok || !bytes.Equal(got, []byte(`{"n":3}`)) {
		t.Fatalf("post-recovery append = %q %v", got, ok)
	}
	if st := s3.stats(); st.IndexEntries != 4 {
		t.Fatalf("index entries = %d, want 4", st.IndexEntries)
	}
}

// TestSegStoreCorruptRecord pins payload-integrity accounting: a record
// whose payload no longer matches its CRC reads as a miss, is counted
// once, and is dropped from the index so retries are plain misses.
func TestSegStoreCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0, 0)
	s.append(key(1), []byte(`{"steps":11}`))
	s.close()

	segs := segFiles(t, dir)
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	end, _ := f.Seek(0, 2)
	if _, err := f.WriteAt([]byte{'X'}, end-1); err != nil { // flip the payload's last byte
		t.Fatal(err)
	}
	f.Close()

	s2 := openTestStore(t, dir, 0, 0)
	if st := s2.stats(); st.IndexEntries != 1 || st.CorruptRecords != 0 {
		t.Fatalf("boot scan is a header walk, got %+v", st) // CRC is checked on read, not at boot
	}
	if _, ok := s2.read(key(1)); ok {
		t.Fatal("corrupt record served")
	}
	st := s2.stats()
	if st.CorruptRecords != 1 || st.IndexEntries != 0 {
		t.Fatalf("after corrupt read: %+v, want 1 corrupt record, 0 index entries", st)
	}
	if _, ok := s2.read(key(1)); ok {
		t.Fatal("dropped record served")
	}
	if st := s2.stats(); st.CorruptRecords != 1 {
		t.Fatalf("corrupt records after retry = %d, want still 1", st.CorruptRecords)
	}
}

// TestSegStoreCompaction pins the dead-space reclaim: once a sealed
// segment is mostly dead, compaction rewrites its live records into the
// active segment and deletes the file, and the moved records still
// read back.
func TestSegStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	payload := func(i int) []byte { return []byte(fmt.Sprintf(`{"v":%d,"pad":"0123456789"}`, i)) }
	// ~104 B per record (12 framing + 64 key + ~28 payload): three per
	// 400 B segment before rotation.
	s := openTestStore(t, dir, 400, 0)
	for i := 0; i < 6; i++ {
		s.append(key(i), payload(i))
	}
	before := s.stats()
	if before.Segments < 2 {
		t.Fatalf("segments = %d, want rotation to have sealed at least one", before.Segments)
	}
	// Kill two of the first sealed segment's three records: > half dead.
	s.deleteKey(key(0))
	s.deleteKey(key(2))
	s.compactNow()
	st := s.stats()
	if st.Compactions < 1 {
		t.Fatalf("compactions = %d, want >= 1", st.Compactions)
	}
	if _, err := os.Stat(filepath.Join(dir, "cache-00000001.seg")); !os.IsNotExist(err) {
		t.Fatalf("compacted segment file not deleted: %v", err)
	}
	if st.DeadBytes != 0 {
		t.Fatalf("dead bytes = %d, want 0 after compaction", st.DeadBytes)
	}
	// The survivor moved but still reads; the deleted keys stay gone.
	if got, ok := s.read(key(1)); !ok || !bytes.Equal(got, payload(1)) {
		t.Fatalf("moved record = %q %v, want %q", got, ok, payload(1))
	}
	if _, ok := s.read(key(0)); ok {
		t.Fatal("deleted key resurrected by compaction")
	}
	// And the rewritten layout survives a reboot.
	s.close()
	s2 := openTestStore(t, dir, 400, 0)
	if got, ok := s2.read(key(1)); !ok || !bytes.Equal(got, payload(1)) {
		t.Fatalf("moved record after reboot = %q %v", got, ok)
	}
}

// TestSegStoreGC pins the byte budget: past -cache-max-bytes the
// coldest sealed segments are dropped whole — never the active one,
// and recently-read segments outlive never-read ones.
func TestSegStoreGC(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"v":0,"pad":"0123456789"}`)
	// One ~102 B record per 100 B segment: every append seals the
	// previous segment, so the store grows one cold segment at a time
	// against a 450 B budget.
	s := openTestStore(t, dir, 100, 450)
	for i := 0; i < 4; i++ {
		s.append(key(i), payload)
	}
	if st := s.stats(); st.GCSegments != 0 {
		t.Fatalf("gc fired under budget: %+v", st)
	}
	// Warm segment 2 (key 1): the unread segment 1 must be the victim.
	if _, ok := s.read(key(1)); !ok {
		t.Fatal("warm read missed")
	}
	s.append(key(4), payload)
	s.append(key(5), payload)
	st := s.stats()
	if st.GCSegments == 0 || st.GCBytes == 0 {
		t.Fatalf("gc did not fire over budget: %+v", st)
	}
	if st.LiveBytes+st.DeadBytes > 450 {
		t.Fatalf("store still over budget: %+v", st)
	}
	if _, ok := s.read(key(0)); ok {
		t.Fatal("coldest segment survived GC")
	}
	if _, ok := s.read(key(1)); !ok {
		t.Fatal("recently-read segment GC'd before never-read ones")
	}
	// The newest (active) record always survives.
	if _, ok := s.read(key(5)); !ok {
		t.Fatal("active segment GC'd")
	}
}

// TestSegStoreClosedReadsMiss: shutdown closes the segment fds while
// readers may still hold the store; a read after close must be a plain
// miss — no closed-fd read error counted, no index mutation via the
// corrupt-record drop path — and the data stays intact for reopen.
func TestSegStoreClosedReadsMiss(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0, 0)
	s.append(key(1), []byte(`{"n":1}`))
	if _, ok := s.read(key(1)); !ok {
		t.Fatal("record unreadable before close")
	}
	s.close()
	if _, ok := s.read(key(1)); ok {
		t.Fatal("closed store served a read")
	}
	s.deleteKey(key(1)) // must be a no-op after close
	if got := s.met.errRead.Value(); got != 0 {
		t.Errorf("read errors after closed-store read = %d, want 0", got)
	}
	s2 := openTestStore(t, dir, 0, 0)
	if got, ok := s2.read(key(1)); !ok || !bytes.Equal(got, []byte(`{"n":1}`)) {
		t.Fatalf("record after reopen = %q %v", got, ok)
	}
}
