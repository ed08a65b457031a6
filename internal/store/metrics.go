package store

import "adasim/internal/obs"

// diskReadBuckets is the disk-read latency layout: a pread of one record
// takes microseconds from the page cache and milliseconds from disk.
var diskReadBuckets = []float64{1e-05, 5e-05, 0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1}

// cacheMetrics holds the result cache's registry-backed counters: the
// one source of truth behind both CacheStats (the /healthz wire format)
// and the adasim_cache_* series.
type cacheMetrics struct {
	hits     *obs.Counter
	misses   *obs.Counter
	diskHits *obs.Counter
	// encodedHits/encodedMisses track Encoded lookups — the results
	// serve path — separately, so warm results polls can be discounted
	// from the hit rate they also count into.
	encodedHits   *obs.Counter
	encodedMisses *obs.Counter
	evictions     *obs.Counter
	entries       *obs.Gauge
	maxEntries    *obs.Gauge
	errWrite      *obs.Counter
	errRead       *obs.Counter
	errDecode     *obs.Counter
	diskRead      *obs.Histogram

	// Segment-store handles (see segstore.go). Registered even when the
	// disk tier is off — an unused series at zero is cheaper to reason
	// about than a conditionally-present one.
	segments     *obs.Gauge
	indexEntries *obs.Gauge
	segLiveBytes *obs.Gauge
	segDeadBytes *obs.Gauge
	compactions  *obs.Counter
	gcSegments   *obs.Counter
	gcBytes      *obs.Counter
	corrupt      *obs.Counter
}

func newCacheMetrics(reg *obs.Registry) *cacheMetrics {
	if reg == nil {
		// Caches built outside a dispatcher (offline CLIs) still count
		// into a private registry so Stats keeps working.
		reg = obs.NewRegistry()
	}
	errHelp := "Disk result-store failures by operation (plain read misses excluded)."
	return &cacheMetrics{
		hits:     reg.Counter("adasim_cache_hits_total", "Result-cache hits (disk hits included)."),
		misses:   reg.Counter("adasim_cache_misses_total", "Result-cache misses (memory and disk)."),
		diskHits: reg.Counter("adasim_cache_disk_hits_total", "Result-cache hits served from the disk store."),
		encodedHits: reg.Counter("adasim_cache_encoded_reads_total",
			"Canonical-bytes lookups via Encoded (the results serve path), by result.", obs.L("result", "hit")),
		encodedMisses: reg.Counter("adasim_cache_encoded_reads_total",
			"Canonical-bytes lookups via Encoded (the results serve path), by result.", obs.L("result", "miss")),
		evictions:  reg.Counter("adasim_cache_evictions_total", "LRU evictions from the in-memory result cache."),
		entries:    reg.Gauge("adasim_cache_entries", "Entries currently in the in-memory result cache."),
		maxEntries: reg.Gauge("adasim_cache_max_entries", "Configured in-memory result-cache capacity."),
		errWrite:   reg.Counter("adasim_cache_disk_errors_total", errHelp, obs.L("op", "write")),
		errRead:    reg.Counter("adasim_cache_disk_errors_total", errHelp, obs.L("op", "read")),
		errDecode:  reg.Counter("adasim_cache_disk_errors_total", errHelp, obs.L("op", "decode")),
		diskRead: reg.Histogram("adasim_cache_disk_read_seconds",
			"Disk result-store read latency (successful reads and misses).", diskReadBuckets),
		segments:     reg.Gauge("adasim_cache_segments", "Segment files in the disk result store (active included)."),
		indexEntries: reg.Gauge("adasim_cache_index_entries", "Keys resolvable in the segment-store index."),
		segLiveBytes: reg.Gauge("adasim_cache_segment_live_bytes", "Segment-store bytes the index still points at."),
		segDeadBytes: reg.Gauge("adasim_cache_segment_dead_bytes", "Segment-store bytes the index no longer points at (superseded or corrupt records)."),
		compactions:  reg.Counter("adasim_cache_compactions_total", "Sealed cache segments deleted once no record in them was live."),
		gcSegments:   reg.Counter("adasim_cache_gc_segments_total", "Cold cache segments dropped to stay under the byte budget."),
		gcBytes:      reg.Counter("adasim_cache_gc_bytes_total", "Bytes reclaimed by cache-segment GC."),
		corrupt:      reg.Counter("adasim_cache_corrupt_records_total", "Cache-segment records dropped: torn tails truncated at boot and CRC mismatches on read."),
	}
}

// journalMetrics holds the journal's registry-backed counters, the
// source of truth behind JournalStats and the adasim_journal_* series.
type journalMetrics struct {
	appends      *obs.Counter
	appendErrors *obs.Counter
	compactions  *obs.Counter
	liveTasks    *obs.Gauge
	segmentBytes *obs.Gauge
	appendLat    *obs.Histogram
}

func newJournalMetrics(reg *obs.Registry) *journalMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &journalMetrics{
		appends:      reg.Counter("adasim_journal_appends_total", "Durable journal appends."),
		appendErrors: reg.Counter("adasim_journal_append_errors_total", "Failed journal appends and compactions."),
		compactions:  reg.Counter("adasim_journal_compactions_total", "Journal segment compactions (rotations)."),
		liveTasks:    reg.Gauge("adasim_journal_live_tasks", "Non-terminal submissions in the journal's live set."),
		segmentBytes: reg.Gauge("adasim_journal_segment_bytes", "Size of the active journal segment."),
		// An append is dominated by fsync: sub-millisecond to tens of ms.
		appendLat: reg.Histogram("adasim_journal_append_seconds", "Journal append latency including the fsync.",
			[]float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5}),
	}
}
