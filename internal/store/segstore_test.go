package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// segPayload is a ~27 B test payload: with a 64 B key and 12 B of
// framing a record is ~103 B, so a 400 B segment seals after three.
func segPayload(i int) []byte { return []byte(fmt.Sprintf(`{"v":%d,"pad":"0123456789"}`, i)) }

// TestSegStoreCompaction pins the reclaim rule: a sealed segment whose
// records are partly dead stays, its residue counted as dead bytes; the
// moment its last live record is dropped, its segment file and sidecar
// are deleted, records elsewhere still read, and a reboot resurrects
// none of the dropped keys.
func TestSegStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 400, 0)
	for i := 0; i < 7; i++ { // segments {0,1,2} {3,4,5} sealed, {6} active
		s.append(key(i), segPayload(i))
	}
	if st := s.stats(); st.Segments != 3 {
		t.Fatalf("segments = %d, want 3", st.Segments)
	}
	seg1 := filepath.Join(dir, "cache-00000001.seg")
	idx1 := filepath.Join(dir, "cache-00000001.idx")

	s.deleteKey(key(0))
	s.deleteKey(key(1))
	st := s.stats()
	if st.Compactions != 0 || st.Segments != 3 || st.DeadBytes == 0 {
		t.Fatalf("two of three dead: %+v, want the segment kept with dead bytes", st)
	}
	if _, err := os.Stat(seg1); err != nil {
		t.Fatalf("partly dead segment deleted: %v", err)
	}

	s.deleteKey(key(2))
	st = s.stats()
	if st.Compactions != 1 || st.Segments != 2 || st.DeadBytes != 0 {
		t.Fatalf("all three dead: %+v, want 1 compaction, 2 segments, 0 dead bytes", st)
	}
	for _, path := range []string{seg1, idx1} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s not deleted with its dead segment: %v", path, err)
		}
	}
	for i := 3; i < 7; i++ {
		if got, ok := s.read(key(i)); !ok || !bytes.Equal(got, segPayload(i)) {
			t.Fatalf("record %d in a live segment = %q %v", i, got, ok)
		}
	}

	s.close()
	s2 := openTestStore(t, dir, 400, 0)
	for i := 0; i < 3; i++ {
		if _, ok := s2.read(key(i)); ok {
			t.Fatalf("key %d of the reclaimed segment resurrected by a reboot", i)
		}
	}
	if got, ok := s2.read(key(6)); !ok || !bytes.Equal(got, segPayload(6)) {
		t.Fatalf("active record after reboot = %q %v", got, ok)
	}
}

// TestSegStoreConcurrentCorruptReads pins the reclaim rule under racing
// readers: with every payload of a sealed segment corrupt on disk,
// goroutines reading all its keys at once count each record once,
// delete the segment exactly once, and never read a closed file.
func TestSegStoreConcurrentCorruptReads(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 400, 0)
	for i := 0; i < 4; i++ { // segment {0,1,2} sealed, {3} active
		s.append(key(i), segPayload(i))
	}
	s.close()

	// Flip the last payload byte of every record in the sealed segment.
	path := filepath.Join(dir, "cache-00000001.seg")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for off := 0; off < len(b); records++ {
		end := off + 4 + int(binary.LittleEndian.Uint32(b[off:]))
		b[end-1] ^= 0xff
		off = end
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, 400, 0)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < records; i++ {
				if got, ok := s2.read(key(i)); ok {
					t.Errorf("corrupt record %d served: %q", i, got)
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	st := s2.stats()
	if st.Compactions != 1 || st.CorruptRecords != int64(records) || st.Segments != 1 {
		t.Fatalf("after racing corrupt reads: %+v, want 1 compaction, %d corrupt records, 1 segment", st, records)
	}
	if got := s2.met.errRead.Value(); got != 0 {
		t.Fatalf("read errors = %d, want 0", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("dead segment not deleted: %v", err)
	}
	if got, ok := s2.read(key(3)); !ok || !bytes.Equal(got, segPayload(3)) {
		t.Fatalf("active record = %q %v", got, ok)
	}
}

// TestSegStoreCloseSyncError pins that a failed fsync of the active
// segment at close counts as a write error, as it does on rotation.
func TestSegStoreCloseSyncError(t *testing.T) {
	s := openTestStore(t, t.TempDir(), 0, 0)
	s.append(key(1), []byte(`{"n":1}`))
	s.mu.Lock()
	s.active.f.Close()
	s.mu.Unlock()
	s.close()
	if got := s.met.errWrite.Value(); got != 1 {
		t.Fatalf("write errors after a failed close-time sync = %d, want 1", got)
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

// TestSegStoreDropSurvivesRestart pins the tombstone: a record dropped
// from a partly dead sealed segment — undecodable (deleteKey) or
// CRC-failing (a corrupt read) — stays dropped after a reboot from the
// sidecars and after one from the record scan: it misses, the index
// and the dead bytes come back as they were, and the corrupt record is
// not counted again. A later append of a dropped key wins.
func TestSegStoreDropSurvivesRestart(t *testing.T) {
	for _, scan := range []bool{false, true} {
		t.Run(map[bool]string{false: "sidecar", true: "scan"}[scan], func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, 400, 0)
			for i := 0; i < 4; i++ { // segment {0,1,2} sealed, {3} active
				s.append(key(i), segPayload(i))
			}
			s.close()
			path := filepath.Join(dir, "cache-00000001.seg")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			second := 4 + int(binary.LittleEndian.Uint32(b)) // record 1 starts here
			b[second+4+int(binary.LittleEndian.Uint32(b[second:]))-1] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}

			s = openTestStore(t, dir, 400, 0)
			s.deleteKey(key(0))
			if _, ok := s.read(key(1)); ok {
				t.Fatal("corrupt record served")
			}
			before := s.stats()
			if before.IndexEntries != 2 || before.Segments != 2 || before.CorruptRecords != 1 || before.DeadBytes == 0 {
				t.Fatalf("after the drops: %+v", before)
			}
			s.close()
			if scan {
				idx, _ := filepath.Glob(filepath.Join(dir, "cache-*.idx"))
				for _, p := range idx {
					os.Remove(p)
				}
			}

			s2 := openTestStore(t, dir, 400, 0)
			for i := 0; i < 2; i++ {
				if got, ok := s2.read(key(i)); ok {
					t.Fatalf("dropped key %d indexed again after reboot: %q", i, got)
				}
			}
			after := s2.stats()
			if after.IndexEntries != before.IndexEntries || after.DeadBytes != before.DeadBytes ||
				after.LiveBytes != before.LiveBytes || after.CorruptRecords != 0 {
				t.Fatalf("after reboot: %+v, before: %+v (corrupt count restarts at 0)", after, before)
			}
			for _, i := range []int{2, 3} {
				if got, ok := s2.read(key(i)); !ok || !bytes.Equal(got, segPayload(i)) {
					t.Fatalf("record %d after reboot = %q %v", i, got, ok)
				}
			}

			s2.append(key(0), segPayload(10))
			s2.close()
			s3 := openTestStore(t, dir, 400, 0)
			if got, ok := s3.read(key(0)); !ok || !bytes.Equal(got, segPayload(10)) {
				t.Fatalf("re-put after the tombstone = %q %v, want the new payload", got, ok)
			}
			if _, ok := s3.read(key(1)); ok {
				t.Fatal("corrupt key indexed again after a second reboot")
			}
		})
	}
}
