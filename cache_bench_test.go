package adasim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adasim/internal/metrics"
	"adasim/internal/store"
)

// cacheBenchStores builds the two disk layouts BenchmarkDiskCacheStore
// compares, both holding the same cacheBenchEntries outcomes under the
// same content-hash keys: a one-JSON-file-per-entry sharded tree — a
// bench-only baseline, not a cache tier — and the binary segment store
// (written through the public ResultCache so the bench also proves the
// store at scale). Built once per bench process and shared by the
// sub-benchmarks.
func cacheBenchStores(b *testing.B) (jsonDir, segDir string, keys []string, entries int) {
	b.Helper()
	entries = cacheBenchEntries
	if testing.Short() {
		entries = 5_000
	}
	jsonDir, segDir = b.TempDir(), b.TempDir()
	keys = make([]string, entries)
	c, err := store.NewResultCache(1, segDir, 0, nil) // maxEntries=1 keeps the LRU cold
	if err != nil {
		b.Fatal(err)
	}
	var seed [8]byte
	for i := 0; i < entries; i++ {
		binary.LittleEndian.PutUint64(seed[:], uint64(i))
		k := fmt.Sprintf("%064x", sha256.Sum256(seed[:]))
		keys[i] = k
		out := metrics.NewOutcome()
		out.Steps = 600 + i%400
		out.Duration = float64(i%400) * 0.01
		enc, err := json.Marshal(out)
		if err != nil {
			b.Fatal(err)
		}
		shard := filepath.Join(jsonDir, k[:2])
		if err := os.MkdirAll(shard, 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, k+".json"), enc, 0o644); err != nil {
			b.Fatal(err)
		}
		c.Put(k, out)
	}
	if st := c.Stats(); st.Disk == nil || st.Disk.IndexEntries != entries {
		b.Fatalf("segment store built %+v entries, want %d", st.Disk, entries)
	}
	c.Close()
	return jsonDir, segDir, keys, entries
}

// BenchmarkDiskCacheStore pins the segment store's two wins over a
// one-file-per-entry JSON baseline at cacheBenchEntries (1e5; -tags
// slowbench for 1e6) entries, as paired interleaved measurements so
// host drift lands on both sides:
//
//   - disk_hit: serving one cached entry. Both sides decode the outcome
//     once (Encoded validates every disk promotion), so the margin is
//     the I/O alone: JSON pays open + read + close per hit, the segment
//     store resolves the in-memory index and preads the CRC-framed
//     payload. Gate: hit-speedup-x >= 1.25.
//   - cold_start: rebuilding the key -> (location, length) index at
//     boot. JSON walks 256 shard directories and stats every file; the
//     segment store makes one buffered sequential header scan per
//     segment. Gate: coldstart-speedup-x >= 10.
//
// scripts/bench_check.sh enforces both gates.
func BenchmarkDiskCacheStore(b *testing.B) {
	jsonDir, segDir, keys, entries := cacheBenchStores(b)

	b.Run("disk_hit", func(b *testing.B) {
		c, err := store.NewResultCache(1, segDir, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		var tJSON, tSeg time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[(i*9973)%entries] // prime stride: no repeats within a cycle
			start := time.Now()
			raw, err := os.ReadFile(filepath.Join(jsonDir, k[:2], k+".json"))
			if err != nil {
				b.Fatal(err)
			}
			var out metrics.Outcome
			if err := json.Unmarshal(raw, &out); err != nil {
				b.Fatal(err)
			}
			tJSON += time.Since(start)
			start = time.Now()
			enc, ok := c.Encoded(k)
			tSeg += time.Since(start)
			if !ok || !bytes.Equal(enc, raw) {
				b.Fatalf("segment store bytes diverge from the JSON baseline for %s", k)
			}
		}
		b.StopTimer()
		n := float64(b.N)
		b.ReportMetric(tJSON.Seconds()*1e9/n, "json-ns/op")
		b.ReportMetric(tSeg.Seconds()*1e9/n, "segment-ns/op")
		b.ReportMetric(tJSON.Seconds()/tSeg.Seconds(), "hit-speedup-x")
	})

	b.Run("cold_start", func(b *testing.B) {
		var tJSON, tSeg time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// JSON index build: enumerate the shard tree and stat every
			// entry — key and length are what the segment index holds, so
			// the walk must recover both to be equivalent.
			start := time.Now()
			found := 0
			err := filepath.WalkDir(jsonDir, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".json") {
					return err
				}
				if _, err := d.Info(); err != nil {
					return err
				}
				found++
				return nil
			})
			tJSON += time.Since(start)
			if err != nil || found != entries {
				b.Fatalf("json walk found %d entries (%v), want %d", found, err, entries)
			}
			start = time.Now()
			c, err := store.NewResultCache(1, segDir, 0, nil)
			tSeg += time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			if st := c.Stats(); st.Disk.IndexEntries != entries {
				b.Fatalf("segment boot indexed %d entries, want %d", st.Disk.IndexEntries, entries)
			}
			c.Close()
		}
		b.StopTimer()
		n := float64(b.N)
		b.ReportMetric(tJSON.Seconds()*1e9/n, "json-build-ns/op")
		b.ReportMetric(tSeg.Seconds()*1e9/n, "segment-build-ns/op")
		b.ReportMetric(tJSON.Seconds()/tSeg.Seconds(), "coldstart-speedup-x")
	})
}
