package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a span. It is a small integer, not a string, so that the
// span slices hold no pointers and the collector never scans them. With a
// string name, flat-comm (a GC cycle every few iterations) ran 4% slower
// traced than untraced; without, 0.3%.
type spanKind uint8

// The spans of one worker iteration: the root and its children in loop order.
const (
	spanIter spanKind = iota
	spanPull
	spanSetParams
	spanNextBatch
	spanForward
	spanBackward
	spanDelay
	spanCloneGrads
	spanPushWait
)

// spanNames are the spans' reported names; a child span named x becomes the
// per-layer metric x_ms.
var spanNames = [...]string{
	spanIter:       "dssp.iter",
	spanPull:       "ps.pull",
	spanSetParams:  "nn.set_params",
	spanNextBatch:  "data.next_batch",
	spanForward:    "nn.forward",
	spanBackward:   "nn.backward",
	spanDelay:      "dssp.delay",
	spanCloneGrads: "nn.clone_grads",
	spanPushWait:   "ps.push_wait",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder's epoch; Parent indexes the recorder's span slice (-1 for an
// iteration root). Spans of one worker iteration share Iter.
type span struct {
	Kind   spanKind
	Start  int64
	End    int64
	Parent int32
	Iter   int32
}

// recorder keeps one worker's spans in memory; nothing is written until the
// repetition ends. It belongs to one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(kind spanKind, parent, iter int) int {
	r.spans = append(r.spans, span{Kind: kind, Start: int64(time.Since(r.epoch)), Parent: int32(parent), Iter: int32(iter)})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) { r.spans[i].End = int64(time.Since(r.epoch)) }

// selfTimes returns, per span, its duration minus the time its direct
// children cover. For an iteration root that is the unaccounted time: wall
// clock no layer span claimed.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// budget folds spans into the per-layer table: total self time by span name,
// with the roots' self time under "dssp.unaccounted", plus the root
// durations for percentiles. By construction the table's values sum to the
// summed root durations.
func budget(spans []span) (selfByName map[string]int64, rootDurations []float64) {
	selfByName = make(map[string]int64)
	for i, self := range selfTimes(spans) {
		s := spans[i]
		if s.Parent < 0 {
			selfByName["dssp.unaccounted"] += self
			rootDurations = append(rootDurations, float64(s.End-s.Start))
			continue
		}
		selfByName[s.Kind.String()] += self
	}
	return selfByName, rootDurations
}

// durationsOf returns the durations in nanoseconds of every span of a kind.
func durationsOf(spans []span, kind spanKind) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Kind == kind {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// traceEvent is a span's on-disk form.
type traceEvent struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Iter    string `json:"iter"`
}

// writeTrace dumps every worker's spans to path as one JSON array.
func writeTrace(path string, perWorker [][]span) error {
	var events []traceEvent
	for w, spans := range perWorker {
		id := func(i int32) string { return fmt.Sprintf("w%d-s%d", w, i) }
		for i, s := range spans {
			e := traceEvent{ID: id(int32(i)), Name: s.Kind.String(), StartNs: s.Start, EndNs: s.End, Iter: fmt.Sprintf("w%d-i%d", w, s.Iter)}
			if s.Parent >= 0 {
				e.Parent = id(s.Parent)
			}
			events = append(events, e)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
