// Per-task lifecycle timelines: every task record carries an ordered
// list of {ts, event, detail} entries appended at each state
// transition (and at run-progress strides while running), served whole
// at GET /v1/tasks/{id}/events and streamed live over SSE. The
// timeline is part of the task record — it costs a handful of 32-byte
// entries per task, is retained and pruned with the record, and is
// always on (it is an API feature, not optional instrumentation).
package service

import (
	"fmt"
	"slices"
	"time"
)

// Timeline event vocabulary. Terminal event names equal the terminal
// Status strings, so a stream consumer can end on the first event whose
// name parses as a terminal status — and the server closes the stream
// right after sending it.
const (
	EventSubmitted       = "submitted"
	EventQueued          = "queued"
	EventStarted         = "started"
	EventProgress        = "progress"
	EventCancelRequested = "cancel_requested"
	EventDone            = string(StatusDone)
	EventFailed          = string(StatusFailed)
	EventCanceled        = string(StatusCanceled)
)

// TimelineEvent is one entry of a task's lifecycle timeline.
type TimelineEvent struct {
	TS     time.Time `json:"ts"`
	Event  string    `json:"event"`
	Detail string    `json:"detail,omitempty"`
}

// TaskEventsResponse is the wire format of GET /v1/tasks/{id}/events.
type TaskEventsResponse struct {
	ID     string          `json:"id"`
	Events []TimelineEvent `json:"events"`
}

// timelineSubBuffer sizes a live subscriber's channel. Sends are
// non-blocking under the dispatcher lock — a stalled SSE consumer
// drops events rather than stalling the scheduler; the terminal state
// still reaches it through the channel close.
const timelineSubBuffer = 64

// progressStrideFor returns how many completed units between progress
// events: about sixteen per task for sized plans, every sixteen units
// for adaptive ones (Total 0, e.g. boundary searches).
func progressStrideFor(total int) int {
	if total <= 0 {
		return 16
	}
	stride := (total + 15) / 16
	if stride < 1 {
		stride = 1
	}
	return stride
}

// timelineEntry is the retained form of one timeline event: when, which
// event, and its numbers. task.event renders the detail text on read
// from the entry and the task's fixed fields, so a record holds no
// strings per event and the dispatcher formats nothing under d.mu.
type timelineEntry struct {
	ts   int64         // unix nanoseconds
	dur  time.Duration // queue wait (started) or run time (done)
	n, m int32         // queue depth, or completed runs and cache hits
	kind entryKind
}

type entryKind uint8

const (
	entrySubmitted    entryKind = iota
	entryRecovered              // submitted, replayed from the journal
	entryReplayFailed           // submitted, but the journal record no longer replays
	entryQueued
	entryStarted
	entryProgress
	entryCancelRequested
	entryCanceledQueued
	entryCanceled
	entryFailed
	entryDone
)

var entryEvents = [...]string{
	EventSubmitted, EventSubmitted, EventSubmitted, EventQueued, EventStarted, EventProgress,
	EventCancelRequested, EventCanceled, EventCanceled, EventFailed, EventDone,
}

// event renders an entry as its wire event. It reads t.errMsg only for
// the failed entry, which is appended after errMsg's last write, so an
// entry copied under d.mu or received from a subscription renders
// outside the lock.
func (t *task) event(e timelineEntry) TimelineEvent {
	var detail string
	switch e.kind {
	case entrySubmitted, entryRecovered:
		detail = fmt.Sprintf("%s %s, spec %s", t.kind.Name, queueClass(t.priority), shortHash(t.hash))
		if e.kind == entryRecovered {
			detail += " (recovered from journal)"
		}
	case entryReplayFailed:
		detail = t.kind.Name + " (recovered from journal)"
	case entryQueued:
		detail = fmt.Sprintf("queue depth %d", e.n)
	case entryStarted:
		detail = "queue wait " + e.dur.String()
	case entryProgress:
		detail = progressDetail(int(e.n), t.prep.Total, int(e.m))
	case entryCancelRequested:
		detail = "stopping between runs"
	case entryCanceledQueued:
		detail = "canceled while queued"
	case entryCanceled:
		detail = fmt.Sprintf("canceled after %d runs", e.n)
	case entryFailed:
		detail = t.errMsg
	case entryDone:
		detail = fmt.Sprintf("%d runs, %d cache hits, ran %s", e.n, e.m, e.dur)
	}
	return TimelineEvent{TS: time.Unix(0, e.ts).UTC(), Event: entryEvents[e.kind], Detail: detail}
}

// events renders a copy of entries.
func (t *task) events(entries []timelineEntry) []TimelineEvent {
	out := make([]TimelineEvent, len(entries))
	for i, e := range entries {
		out[i] = t.event(e)
	}
	return out
}

// appendEventLocked stamps and appends one timeline entry and fans it
// out to the live subscribers (non-blocking; see timelineSubBuffer).
// d.mu must be held — which also makes the timeline order the record's
// state order. A sized plan's first append reserves its whole timeline.
func (d *Dispatcher) appendEventLocked(t *task, e timelineEntry) {
	e.ts = time.Now().UnixNano()
	if t.timeline == nil && t.prep.Total > 0 {
		t.timeline = make([]timelineEntry, 0, min(t.prep.Total, 16)+5)
	}
	t.timeline = append(t.timeline, e)
	for _, ch := range t.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// closeSubsLocked ends every live subscription — called exactly once,
// right after the terminal event was appended. d.mu must be held.
func (d *Dispatcher) closeSubsLocked(t *task) {
	for _, ch := range t.subs {
		close(ch)
	}
	t.subs = nil
}

// TaskEvents returns the task's timeline so far, if the task is known.
func (d *Dispatcher) TaskEvents(id string) ([]TimelineEvent, bool) {
	d.mu.Lock()
	t, ok := d.tasks[id]
	var entries []timelineEntry
	if ok {
		entries = slices.Clone(t.timeline)
	}
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	return t.events(entries), true
}

// WatchTask subscribes to a task's live timeline: it returns the
// events so far plus a channel delivering subsequent entries, which
// render turns into events. The channel closes when the task reaches a
// terminal state (right after the terminal entry is delivered) — for an
// already-terminal task it is closed on return, so the past slice is
// the whole story. The caller must call stop when done watching; stop
// is idempotent and safe after the close.
func (d *Dispatcher) WatchTask(id string) (past []TimelineEvent, entries <-chan timelineEntry, render func(timelineEntry) TimelineEvent, stop func(), ok bool) {
	d.mu.Lock()
	t, ok := d.tasks[id]
	if !ok {
		d.mu.Unlock()
		return nil, nil, nil, nil, false
	}
	prior := slices.Clone(t.timeline)
	ch := make(chan timelineEntry, timelineSubBuffer)
	stop = func() {}
	if t.status.terminal() {
		close(ch)
	} else {
		t.subs = append(t.subs, ch)
		stop = func() {
			d.mu.Lock()
			defer d.mu.Unlock()
			// If the terminal transition already closed the channel, it is
			// gone from t.subs and there is nothing to do.
			for i, c := range t.subs {
				if c == ch {
					t.subs = append(t.subs[:i], t.subs[i+1:]...)
					close(ch)
					return
				}
			}
		}
	}
	d.mu.Unlock()
	return t.events(prior), ch, t.event, stop, true
}
