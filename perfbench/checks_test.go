package main

import (
	"errors"
	"strings"
	"testing"

	"pmc/internal/pmcd"
	"pmc/internal/sweep"
)

func TestErrorRateCountsRefusedJobs(t *testing.T) {
	results := []jobResult{
		{outcome: jobOK}, {outcome: jobOK}, {outcome: jobOK},
		{outcome: jobRefused, err: errors.New("pmcd: server: pmcd: job queue full (HTTP 503)")},
		{outcome: jobFailed}, {outcome: jobMismatch},
	}
	attempted, failed := serveTally(results)
	if attempted != 6 || failed != 3 {
		t.Fatalf("tally = %d attempted, %d failed; want 6, 3", attempted, failed)
	}
	if got := errorRate(attempted, failed); got != 0.5 {
		t.Errorf("error rate = %g, want 0.5", got)
	}
	if got := errorRate(0, 0); got != 0 {
		t.Errorf("error rate of nothing = %g, want 0", got)
	}
	rep := &report{}
	r := &serveRound{results: results, bodies: map[string][]byte{}, stats: pmcd.Stats{}}
	r.check(rep, 0)
	if rep.attempted != 6 || rep.failed != 3 || rep.correct() {
		t.Errorf("report after a round with a refused job: %+v", rep)
	}
}

func TestServeCheckCountsSimulations(t *testing.T) {
	rep := &report{}
	r := &serveRound{
		results: []jobResult{{outcome: jobOK}},
		bodies:  map[string][]byte{"a": nil, "b": nil},
		stats:   pmcd.Stats{Simulations: 3},
	}
	r.check(rep, 0)
	if len(rep.problems) != 1 || !strings.Contains(rep.problems[0], "3 simulations for 2 distinct specs") {
		t.Errorf("problems = %q", rep.problems)
	}
}

func TestVerifyTalliesAccounting(t *testing.T) {
	// 3 distinct programs of 4, one over the state budget: 2 checked on
	// each of the 4 backends.
	clean := tallies{Unique: 3, Deduped: 1, SkippedBudget: 1, Checked: 8, SpecChecked: 8}
	if p := clean.problems(4); len(p) != 0 {
		t.Fatalf("clean campaign flagged: %q", p)
	}
	rep := &report{}
	checkCampaign(rep, 0, clean)
	if rep.attempted != 8 || rep.failed != 0 {
		t.Errorf("clean campaign counted %d/%d", rep.failed, rep.attempted)
	}
	bad := clean
	bad.Violations, bad.Diverged = 1, 1
	rep = &report{}
	checkCampaign(rep, 0, bad)
	if rep.attempted != 8 || rep.failed != 2 || rep.correct() {
		t.Errorf("bad campaign counted %d/%d, problems %q", rep.failed, rep.attempted, rep.problems)
	}
	short := clean
	short.Checked, short.SpecChecked = 6, 6
	if p := short.problems(4); len(p) != 1 {
		t.Errorf("missing checks not flagged: %q", p)
	}
}

func TestGridCheckFlagsErrorsAndChecksums(t *testing.T) {
	g := &grid{rows: []sweep.Row{
		{App: "a", Backend: "nocc", Tiles: 16, Checksum: 1},
		{App: "a", Backend: "swcc", Tiles: 16, Checksum: 1},
		{App: "a", Backend: "dsm", Tiles: 16, Checksum: 2},
		{App: "b", Backend: "nocc", Tiles: 16, Err: "boom"},
		{App: "b", Backend: "swcc", Tiles: 16, Checksum: 5},
	}}
	rep := &report{}
	g.check(rep)
	if rep.attempted != 5 || rep.failed != 2 || len(rep.problems) != 2 {
		t.Fatalf("grid check: %d/%d failed, problems %q", rep.failed, rep.attempted, rep.problems)
	}
}
