package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentStoreOpen fuzzes the boot path of both logs that share
// the record frame. Each input becomes the cache segment store's only
// segment file (and, optionally, its index sidecar), and the task
// journal's only segment.
//
// The cache half: openSegStore rebuilds the index and every indexed
// key is read back. Nothing may panic; every index entry must lie
// inside its segment; and each read must either return bytes whose
// CRC-32C matches the framing on disk, or miss with the record dropped
// from the index and counted as corrupt or as a read error. No key may
// stay indexed behind a tombstone that follows its last record.
//
// The journal half (see checkJournalBoot): the journal must boot, leave
// one framed segment behind, and replay that segment to the same live
// set with nothing corrupt.
//
// The corpus is seeded from a real store of a few records, one of them
// dropped (a tombstone), and from a framed journal, whole and torn.
func FuzzSegmentStoreOpen(f *testing.F) {
	seed := f.TempDir()
	s, err := openSegStore(seed, 0, 0, newCacheMetrics(nil))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.append(key(i), []byte(fmt.Sprintf(`{"steps":%d}`, i)))
	}
	s.deleteKey(key(1)) // appends a tombstone
	s.close()           // writes the active segment's sidecar
	seg, err := os.ReadFile(filepath.Join(seed, fmt.Sprintf(cacheSegPattern, 1)))
	if err != nil {
		f.Fatal(err)
	}
	idx, err := os.ReadFile(filepath.Join(seed, fmt.Sprintf(cacheIdxPattern, 1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, idx, true)              // clean boot from the sidecar
	f.Add(seg, []byte(nil), false)     // sidecar-less: the record scan
	f.Add(seg[:len(seg)-5], idx, true) // torn tail, stale sidecar
	f.Add([]byte{0xff, 0xff, 0, 0}, idx, true)
	// A CRC-clean sidecar whose first offset is near MaxInt64: the end
	// check must not overflow into accepting it.
	huge := append([]byte(nil), idx...)
	binary.LittleEndian.PutUint64(huge[cacheIdxHeader+8:], 1<<63-8)
	binary.LittleEndian.PutUint32(huge[16:], crc32.Checksum(huge[cacheIdxHeader:], crcCastagnoli))
	f.Add(seg, huge, true)
	f.Add([]byte(nil), []byte(nil), false)
	// The tombstone with its CRC word flipped: the scan must count and
	// skip it rather than apply it.
	badTomb := append([]byte(nil), seg...)
	badTomb[len(badTomb)-1] ^= 0xff
	f.Add(badTomb, []byte(nil), false)
	// A journal of submits, a terminal record and a seq marker, whole
	// and with a torn final frame.
	recs := []JournalRecord{
		{Op: opSeq, Seq: 3},
		testRecord(OpSubmit, "j000004", 4),
		testRecord(OpSubmit, "j000005", 5),
		{Op: OpDone, ID: "j000004", ResultHash: "ab"},
	}
	var framed []byte
	for _, rec := range recs {
		if framed, err = appendRecord(framed, rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(framed, []byte(nil), false)
	f.Add(framed[:len(framed)-3], []byte(nil), false)

	f.Fuzz(func(t *testing.T, segBytes, idxBytes []byte, withIdx bool) {
		checkJournalBoot(t, fmt.Sprintf(journalSegPattern, 1), segBytes)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(cacheSegPattern, 1)), segBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if withIdx {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(cacheIdxPattern, 1)), idxBytes, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		met := newCacheMetrics(nil)
		s, err := openSegStore(dir, 0, 0, met)
		if err != nil {
			t.Fatalf("boot on fuzzed segment: %v", err)
		}
		defer s.close()

		s.mu.RLock()
		refs := make(map[string]segRef, len(s.index))
		for k, ref := range s.index {
			refs[k] = ref
		}
		s.mu.RUnlock()
		if _, ok := refs[key(1)]; ok && bytes.Equal(segBytes, seg) && (!withIdx || bytes.Equal(idxBytes, idx)) {
			t.Fatalf("key dropped by the seed's tombstone is indexed")
		}
		for k, ref := range refs {
			if ref.off < 0 || ref.plen < 0 || ref.off > ref.seg.size-4-int64(ref.plen) {
				t.Fatalf("index entry %q at off %d len %d outside its %d-byte segment",
					k, ref.off, ref.plen, ref.seg.size)
			}
		}

		for k, ref := range refs {
			before := met.corrupt.Value() + met.errRead.Value()
			got, ok := s.read(k)
			if ok {
				frame := make([]byte, 4+int(ref.plen))
				if _, err := ref.seg.f.ReadAt(frame, ref.off); err != nil {
					t.Fatalf("re-reading served record %q: %v", k, err)
				}
				if !bytes.Equal(got, frame[4:]) ||
					crc32.Checksum(got, crcCastagnoli) != binary.LittleEndian.Uint32(frame) {
					t.Fatalf("read(%q) served bytes that do not match their CRC framing", k)
				}
				continue
			}
			if met.corrupt.Value()+met.errRead.Value() != before+1 {
				t.Fatalf("read(%q) missed without being counted", k)
			}
			s.mu.RLock()
			_, still := s.index[k]
			s.mu.RUnlock()
			if still {
				t.Fatalf("read(%q) missed but the record stayed indexed", k)
			}
		}
	})
}

// checkJournalBoot boots a journal whose only segment is named name and
// holds segBytes. It must boot with a well-formed live set, and leave
// exactly one framed segment behind, which replays to the same live
// set and sequence floor with nothing corrupt: boot compaction is a
// fixed point.
func checkJournalBoot(t *testing.T, name string, segBytes []byte) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), segBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, stats, err := OpenJournal(dir, 0, nil)
	if err != nil {
		t.Fatalf("journal boot on fuzzed %s: %v", name, err)
	}
	j.Close()
	seen := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if rec.Op != OpSubmit || rec.ID == "" || seen[rec.ID] {
			t.Fatalf("replayed record is not a unique live submit: %+v", rec)
		}
		seen[rec.ID] = true
	}
	names := journalFiles(t, dir)
	if want := fmt.Sprintf(journalSegPattern, 2); len(names) != 1 || names[0] != want {
		t.Fatalf("journal files after boot = %v, want [%s]", names, want)
	}
	j2, recs2, stats2, err := OpenJournal(dir, 0, nil)
	if err != nil {
		t.Fatalf("journal reboot: %v", err)
	}
	j2.Close()
	if stats2.CorruptRecords != 0 || stats2.MaxSeq != stats.MaxSeq {
		t.Fatalf("reboot stats = %+v after %+v", stats2, stats)
	}
	a, errA := json.Marshal(recs)
	b, errB := json.Marshal(recs2)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("reboot replayed %s, first boot %s", b, a)
	}
}
