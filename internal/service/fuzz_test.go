package service

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

// FuzzParseSpec fuzzes the strict job-spec wire-format decoder (the same
// decode the submission endpoint applies): any input that decodes must
// normalize to a stable fixed point — decode, Normalized, encode, decode
// again, Normalized again must reproduce the same bytes and the same
// content hash — and nothing may panic, including Plan on valid specs.
func FuzzParseSpec(f *testing.F) {
	// Seed the corpus from the golden wire-format fixture (its first JSON
	// value; the trailing hash line is ignored by the decoder) plus edge
	// shapes.
	if b, err := os.ReadFile(filepath.Join("testdata", "jobspec.golden")); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"fault":{},"interventions":{}}`))
	f.Add([]byte(`{"scenarios":[4,1,4],"gaps":[230,60,230],"reps":2,"fault":{},"interventions":{"driver":true}}`))
	f.Add([]byte(`{"reps":100001,"fault":{},"interventions":{}}`))
	f.Add([]byte(`{"gaps":[-1],"fault":{},"interventions":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return // not a spec; only panics are failures
		}
		n := spec.Normalized()
		if err := n.Validate(); err != nil {
			return // invalid specs just have to fail cleanly
		}
		h1, err := n.Hash()
		if err != nil {
			t.Fatalf("hashing a valid normalized spec: %v", err)
		}
		b1, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("encoding a valid normalized spec: %v", err)
		}
		spec2, err := DecodeSpec(b1)
		if err != nil {
			t.Fatalf("round-trip decode of %s: %v", b1, err)
		}
		n2 := spec2.Normalized()
		b2, err := json.Marshal(n2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("Normalized is not a fixed point:\n%s\nvs\n%s", b1, b2)
		}
		h2, err := n2.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("round-trip changed the content hash: %s vs %s", h1, h2)
		}
	})
}

// FuzzSegmentStoreOpen fuzzes the cache segment store's boot path: the
// input bytes become the store's only segment file (and, optionally, its
// index sidecar), openSegStore rebuilds the index from them, and every
// indexed key is read back. Nothing may panic; every index entry must
// lie inside its segment; and each read must either return bytes whose
// CRC-32C matches the framing on disk, or miss with the record dropped
// from the index and counted as corrupt or as a read error. The corpus
// is seeded from a real store of a few records.
func FuzzSegmentStoreOpen(f *testing.F) {
	seed := f.TempDir()
	s, err := openSegStore(seed, 0, 0, newCacheMetrics(nil))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.append(key(i), []byte(fmt.Sprintf(`{"steps":%d}`, i)))
	}
	s.close() // writes the active segment's sidecar
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

	f.Fuzz(func(t *testing.T, segBytes, idxBytes []byte, withIdx bool) {
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
