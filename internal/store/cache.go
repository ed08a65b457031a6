// Package store is the content-addressed result cache: an in-memory LRU
// of per-run outcomes over an optional on-disk segment store that
// survives restarts. The task service, the batch CLIs and the benchmarks
// share it.
package store

import (
	"container/list"
	"encoding/json"
	"sync"
	"time"

	"adasim/internal/metrics"
	"adasim/internal/obs"
)

// DiskErrorStats counts disk-store failures by kind. The cache is an
// accelerator — failures never fail a Get or Put — but they must be
// visible: a dying disk shows up here (and in /healthz) long before it
// shows up as mysteriously slow recoveries.
type DiskErrorStats struct {
	// Write counts failed disk-store writes (segment create, rotate
	// fsync, record append).
	Write int64 `json:"write"`
	// Read counts failed disk reads other than plain misses (an absent
	// key is a miss, not an error).
	Read int64 `json:"read"`
	// Decode counts CRC-clean records whose canonical JSON did not parse
	// (a schema mismatch); each one is dropped from the index so it is
	// counted once, not on every lookup.
	Decode int64 `json:"decode"`
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	MaxSize   int   `json:"max_size"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	DiskHits  int64 `json:"disk_hits"`
	Evictions int64 `json:"evictions"`
	// EncodedHits/EncodedMisses count the Encoded lookups (the results
	// serve path) within Hits/Misses, so clients polling a warm result
	// can be discounted from the job-path hit rate.
	EncodedHits   int64          `json:"encoded_hits"`
	EncodedMisses int64          `json:"encoded_misses"`
	DiskErrors    DiskErrorStats `json:"disk_errors"`
	// Disk describes the segment store; nil when the disk tier is off.
	Disk *SegmentStoreStats `json:"disk,omitempty"`
}

// ResultCache is a content-addressed store of per-run outcomes keyed by
// the run fingerprint hash (see JobSpec.Plan). It keeps an in-memory LRU
// of maxEntries outcomes and, when dir is non-empty, mirrors every entry
// to an on-disk segment store (see segstore.go) that survives restarts
// and LRU eviction. Because keys are content hashes of everything that
// determines a run, an entry is immutable: a key can only ever map to
// one outcome. Files in dir other than the store's own segments and
// sidecars are ignored.
type ResultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	store *segStore // nil when the disk tier is off (dir == "")

	// All counters live in the obs registry (see newCacheMetrics): the
	// same handles feed CacheStats (the /healthz wire format) and the
	// adasim_cache_* exposition. They are atomic, so the disk-side paths
	// — which deliberately run outside mu so a slow disk cannot stall
	// memory hits — record without the lock.
	met *cacheMetrics
}

// cacheEntry pairs the canonical JSON encoding with its decoded
// outcome. Keys are content hashes, so the encoding is computed once
// per key — on first Put or on disk promotion — and never again: warm
// serves hand out the stored bytes instead of re-marshaling, and a
// repeat Put of a resident key skips both the marshal and the disk
// write. Every resident entry holds a valid decoded outcome: disk
// promotions (Get and Encoded alike) unmarshal once before insertion,
// so bytes the current schema rejects never become resident — and
// never get served verbatim.
type cacheEntry struct {
	key string
	out metrics.Outcome
	enc []byte
}

// NewResultCache builds a cache holding up to maxEntries outcomes in
// memory (minimum 1). dir, when non-empty, enables the on-disk segment
// store and is created if missing; maxBytes is the store's GC budget
// (0 = unbounded). Counters record into reg, or into a private registry
// when reg is nil.
func NewResultCache(maxEntries int, dir string, maxBytes int64, reg *obs.Registry) (*ResultCache, error) {
	if maxEntries < 1 {
		maxEntries = 1
	}
	c := &ResultCache{
		max:   maxEntries,
		ll:    list.New(),
		items: make(map[string]*list.Element, maxEntries),
		met:   newCacheMetrics(reg),
	}
	if dir != "" {
		store, err := openSegStore(dir, 0, maxBytes, c.met)
		if err != nil {
			return nil, err
		}
		c.store = store
	}
	c.met.maxEntries.Set(int64(maxEntries))
	return c, nil
}

// Close releases the disk tier: the active segment syncs and the file
// handles close. Safe on a memory-only cache and idempotent; the memory
// side keeps serving after Close.
func (c *ResultCache) Close() {
	if c.store != nil {
		c.store.close()
	}
}

// Get returns the outcome stored under key. A memory miss falls through
// to the disk store (when enabled); a disk hit is promoted back into the
// LRU and still counts as a hit.
func (c *ResultCache) Get(key string) (metrics.Outcome, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		out := el.Value.(*cacheEntry).out
		c.mu.Unlock()
		c.met.hits.Inc()
		return out, true
	}
	c.mu.Unlock()

	if enc, ok := c.readDisk(key); ok {
		var out metrics.Outcome
		if err := json.Unmarshal(enc, &out); err != nil {
			// The bytes were CRC-clean, so this is a schema mismatch, not
			// bit rot; count it once and drop the record.
			c.met.errDecode.Inc()
			c.store.deleteKey(key)
			c.met.misses.Inc()
			return metrics.Outcome{}, false
		}
		c.mu.Lock()
		c.insertLocked(key, out, enc)
		c.mu.Unlock()
		c.met.hits.Inc()
		c.met.diskHits.Inc()
		return out, true
	}

	c.met.misses.Inc()
	return metrics.Outcome{}, false
}

// Encoded returns the canonical JSON encoding of the outcome stored
// under key, for serving verbatim (io.Copy via bytes.Reader) without a
// re-marshal. The bytes are the cache's single encoding of the entry:
// callers must not mutate them. Lookup semantics match Get exactly —
// memory, then disk, with LRU promotion, hit/miss accounting, and the
// same decode validation on disk promotion: bytes Get would reject (a
// CRC-clean record of an older schema) are rejected here too, never
// handed to a client verbatim. Encoded additionally counts into the
// encoded-reads series, so the results-serve path (clients polling a
// warm result) can be discounted from the job-path hit rate it would
// otherwise skew.
func (c *ResultCache) Encoded(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		enc := el.Value.(*cacheEntry).enc
		c.mu.Unlock()
		if enc == nil {
			// Resident but never encodable (marshal failed on Put);
			// there are no canonical bytes to serve.
			c.met.misses.Inc()
			c.met.encodedMisses.Inc()
			return nil, false
		}
		c.met.hits.Inc()
		c.met.encodedHits.Inc()
		return enc, true
	}
	c.mu.Unlock()

	if enc, ok := c.readDisk(key); ok {
		var out metrics.Outcome
		if err := json.Unmarshal(enc, &out); err != nil {
			// Same posture as Get: schema mismatch, counted once, record
			// dropped — a verbatim serve of bytes the current schema no
			// longer produces would push them all the way to a client.
			c.met.errDecode.Inc()
			c.store.deleteKey(key)
			c.met.misses.Inc()
			c.met.encodedMisses.Inc()
			return nil, false
		}
		c.mu.Lock()
		c.insertLocked(key, out, enc)
		c.mu.Unlock()
		c.met.hits.Inc()
		c.met.diskHits.Inc()
		c.met.encodedHits.Inc()
		return enc, true
	}

	c.met.misses.Inc()
	c.met.encodedMisses.Inc()
	return nil, false
}

// Put stores the outcome under key, evicting the least recently used
// entry when full. The outcome is marshaled exactly once here; a Put
// of an already-resident key is a pure LRU touch (entries are
// immutable under their content hash, so re-encoding and re-writing
// the disk store would only burn cycles). Disk-store write failures
// are swallowed (but counted in DiskErrorStats): the cache is an
// accelerator, never a correctness dependency.
func (c *ResultCache) Put(key string, out metrics.Outcome) {
	c.mu.Lock()
	if _, ok := c.items[key]; ok {
		c.ll.MoveToFront(c.items[key])
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	enc, err := json.Marshal(out)
	if err != nil {
		// Unmarshalable outcomes cannot reach the disk store either;
		// keep the memory entry so Get still works and count the write
		// failure where it used to be counted.
		c.mu.Lock()
		c.insertLocked(key, out, nil)
		c.mu.Unlock()
		if c.diskEligible(key) {
			c.met.errWrite.Inc()
		}
		return
	}
	c.mu.Lock()
	c.insertLocked(key, out, enc)
	c.mu.Unlock()
	c.writeDisk(key, enc)
}

// insertLocked adds or refreshes an entry; c.mu must be held.
func (c *ResultCache) insertLocked(key string, out metrics.Outcome, enc []byte) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.out = out
		if enc != nil {
			e.enc = enc
		}
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, out: out, enc: enc})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.removeLocked(oldest)
		c.met.evictions.Inc()
	}
	c.met.entries.Set(int64(c.ll.Len()))
}

// removeLocked drops one entry from the LRU; c.mu must be held.
func (c *ResultCache) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*cacheEntry).key)
	c.met.entries.Set(int64(c.ll.Len()))
}

// Stats snapshots the counters — the same registry series /metrics
// exposes, so the two surfaces cannot disagree.
func (c *ResultCache) Stats() CacheStats {
	st := CacheStats{
		Entries:       int(c.met.entries.Value()),
		MaxSize:       int(c.met.maxEntries.Value()),
		Hits:          int64(c.met.hits.Value()),
		Misses:        int64(c.met.misses.Value()),
		DiskHits:      int64(c.met.diskHits.Value()),
		Evictions:     int64(c.met.evictions.Value()),
		EncodedHits:   int64(c.met.encodedHits.Value()),
		EncodedMisses: int64(c.met.encodedMisses.Value()),
		DiskErrors: DiskErrorStats{
			Write:  int64(c.met.errWrite.Value()),
			Read:   int64(c.met.errRead.Value()),
			Decode: int64(c.met.errDecode.Value()),
		},
	}
	if c.store != nil {
		disk := c.store.stats()
		st.Disk = &disk
	}
	return st
}

// diskEligible is the single validity gate for disk-store keys: the
// disk tier must be on and the key at least two characters long. Every
// real content-hash key is 64 hex digits; shorter keys stay memory-only.
func (c *ResultCache) diskEligible(key string) bool {
	return c.store != nil && len(key) >= 2
}

// readDisk loads an entry's canonical bytes from the segment store,
// timing the lookup into the disk-read histogram.
func (c *ResultCache) readDisk(key string) ([]byte, bool) {
	if !c.diskEligible(key) {
		return nil, false
	}
	start := time.Now()
	b, ok := c.store.read(key)
	c.met.diskRead.Observe(time.Since(start).Seconds())
	return b, ok
}

// writeDisk persists the already-encoded entry to the segment store;
// the caller supplies the canonical bytes so the disk tier never
// marshals.
func (c *ResultCache) writeDisk(key string, b []byte) {
	if !c.diskEligible(key) {
		return
	}
	c.store.append(key, b)
}
