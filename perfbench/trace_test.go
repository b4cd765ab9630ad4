package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "job", Start: ms(0), End: ms(10)},
		// Two overlapping children cover [2, 6): 4 ms, not 5.
		{ID: 2, Parent: 1, Name: "submit", Start: ms(2), End: ms(4)},
		{ID: 3, Parent: 1, Name: "result", Start: ms(3), End: ms(6)},
		// A grandchild counts against its parent only.
		{ID: 4, Parent: 3, Name: "store", Start: ms(4), End: ms(5)},
		// A child reaching past its parent is clipped to the parent.
		{ID: 5, Name: "cell", Start: ms(20), End: ms(30)},
		{ID: 6, Parent: 5, Name: "run", Start: ms(25), End: ms(40)},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"job": ms(6), "submit": ms(2), "result": ms(2), "store": ms(1), "cell": ms(5), "run": ms(15),
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

func TestCoverageOfTopLevelSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "a", Start: ms(0), End: ms(4)},
		{ID: 2, Name: "b", Start: ms(2), End: ms(6)},
		{ID: 3, Parent: 1, Name: "child", Start: ms(8), End: ms(10)}, // not top-level
	}
	if got := coverage(spans, ms(0), ms(10)); got != 0.6 {
		t.Errorf("coverage = %g, want 0.6", got)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", 0, 7)
	inner := tr.begin("inner", outer, 7)
	open := tr.begin("open", 0, 7)
	tr.end(inner)
	tr.end(outer)
	_ = open // never closed: left out of the snapshot
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Op != 7 || spans[1].Dur() < 0 {
		t.Fatalf("spans = %+v", spans)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}
