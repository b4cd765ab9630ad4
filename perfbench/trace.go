package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one operation (a campaign, a grid
// cell, a pmcd job) share an Op id; Parent is the enclosing span's ID, or
// 0 for a top-level span. Times are offsets from the tracer's epoch.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span (for intervals measured by callbacks,
// such as a grid cell's phases) and returns its ID.
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans)
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durations returns the durations of every span with the given name, in ms.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur().Nanoseconds())/1e6)
		}
	}
	return out
}

// total sums the durations of every span with the given name.
func total(spans []Span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.Dur()
		}
	}
	return d
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var sum time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv.lo, iv.hi, true
		case iv.lo <= curHi:
			curHi = max(curHi, iv.hi)
		default:
			sum += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its child spans cover.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// coverage is the share of [lo, hi) that top-level spans cover.
func coverage(spans []Span, lo, hi time.Duration) float64 {
	if hi <= lo {
		return 0
	}
	var top []interval
	for _, s := range spans {
		if s.Parent == 0 {
			top = append(top, interval{s.Start, s.End})
		}
	}
	return float64(covered(top, lo, hi)) / float64(hi-lo)
}
