package litmus_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pmc/internal/conform"
	"pmc/internal/fuzz"
	"pmc/internal/litmus"
)

// The differential oracle for do/undo exploration: the product engine
// walks one live state and undoes every move, the reference walker
// (reference_test.go) clones the state for every successor. Both must
// report identical Outcomes, Stuck and States — or the same budget error —
// in every engine mode. This file is an external test package so that it
// can draw programs from the fuzz generator, which imports litmus.

// explorerMode is one engine configuration.
type explorerMode struct {
	name              string
	workers           int
	memoize, symmetry bool
}

var oracleModes = []explorerMode{
	{"tree", 1, false, false},
	{"tree-par", 4, false, false},
	{"memo", 1, true, false},
	{"memo-par", 4, true, false},
	{"sym", 1, true, true},
	{"sym-par", 4, true, true},
}

// diffEngines explores p with both engines in mode m and returns the first
// difference, or "".
func diffEngines(p litmus.Program, m explorerMode, maxStates int) string {
	run := func(reference bool) (*litmus.Result, error) {
		x := litmus.NewExplorer(p)
		x.Workers, x.Memoize, x.Symmetry = m.workers, m.memoize, m.symmetry
		x.MaxStates = maxStates
		if reference {
			return x.ReferenceRun()
		}
		return x.Run()
	}
	got, gotErr := run(false)
	want, wantErr := run(true)
	switch {
	case gotErr != nil || wantErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
	case !reflect.DeepEqual(got.Outcomes, want.Outcomes):
		return fmt.Sprintf("outcomes %v, reference %v", got.Outcomes, want.Outcomes)
	case got.Stuck != want.Stuck:
		return fmt.Sprintf("stuck %d, reference %d", got.Stuck, want.Stuck)
	case got.States != want.States:
		return fmt.Sprintf("states %d, reference %d", got.States, want.States)
	}
	return ""
}

// Every catalog program in every mode. The stress program cannot finish
// in the tree modes (its purpose); there both engines must run out of the
// same small budget.
func TestDoUndoMatchesCloneWalkerOnCatalog(t *testing.T) {
	for _, p := range litmus.Catalog() {
		for _, m := range oracleModes {
			maxStates := 2_000_000
			if p.Name == "stress-independent" && !m.memoize {
				maxStates = 20_000
			}
			if d := diffEngines(p, m, maxStates); d != "" {
				t.Errorf("%s/%s: %s", p.Name, m.name, d)
			}
		}
	}
	// The budget path itself: both engines must refuse the stress program.
	x := litmus.NewExplorer(litmus.StressIndependent())
	x.Memoize, x.MaxStates = false, 20_000
	if _, err := x.Run(); !errors.Is(err, litmus.ErrBudget) {
		t.Errorf("stress-independent in tree mode: err = %v, want the budget error", err)
	}
}

// genSet is a run of generated programs: n seeds from first, in mode.
type genSet struct {
	mode  fuzz.Mode
	first int64
	n     int
}

// verifyCorpus is the program corpus of the verify benchmark: mixed-mode
// seeds 1 000 000 to 1 000 159.
var verifyCorpus = genSet{fuzz.ModeMixed, 1_000_000, 160}

// generatedSets is the verify corpus plus 200 drf and 200 racy programs.
var generatedSets = []genSet{verifyCorpus, {fuzz.ModeDRF, 1, 200}, {fuzz.ModeRacy, 1, 200}}

// campaignBudget is the fuzz campaign's state budget.
const campaignBudget = 300_000

// eachGenerated runs check on every program of sets as the fuzz campaign
// explores it (the effective program), in parallel subtests of 20
// programs; check returns the first difference, or "".
func eachGenerated(t *testing.T, sets []genSet, check func(p litmus.Program) string) {
	const chunk = 20 // programs per parallel subtest
	for _, set := range sets {
		for first := set.first; first < set.first+int64(set.n); first += chunk {
			t.Run(fmt.Sprintf("%s-%d", set.mode, first), func(t *testing.T) {
				t.Parallel()
				for seed := first; seed < first+chunk; seed++ {
					p := conform.EffectiveProgram(fuzz.Generate(seed, fuzz.GenConfig{Mode: set.mode}))
					if d := check(p); d != "" {
						t.Errorf("seed %d: %s\n%s", seed, d, fuzz.Render(p))
					}
				}
			})
		}
	}
}

// Generated programs as the fuzz campaign explores them (effective
// program, memoized, one worker, the campaign's budget).
func TestDoUndoMatchesCloneWalkerOnGenerated(t *testing.T) {
	m := explorerMode{"memo", 1, true, false}
	eachGenerated(t, generatedSets, func(p litmus.Program) string {
		return diffEngines(p, m, campaignBudget)
	})
}

// errString renders a check error as a difference ("" for none).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// The incremental state key against an independent computation: after
// every do and every undo, the labels and the accumulator of the identity
// and of every automorphism frame equal a from-scratch fold of the
// execution — over the catalog and the verify corpus.
func TestIncrementalKeysMatchScratchFold(t *testing.T) {
	for _, p := range litmus.Catalog() {
		if err := litmus.CheckIncrementalKeys(p, campaignBudget); err != nil {
			t.Error(err)
		}
	}
	eachGenerated(t, []genSet{verifyCorpus}, func(p litmus.Program) string {
		return errString(litmus.CheckIncrementalKeys(p, campaignBudget))
	})
}

// The incremental key against the sort-based key it replaced: both split
// the visited states into the same classes, which is what keeps every
// explored state count unchanged — over the catalog in memo and symmetry
// modes and over every generated set.
func TestIncrementalKeyPartitionsLikeSortKey(t *testing.T) {
	for _, p := range litmus.Catalog() {
		for _, symmetry := range []bool{false, true} {
			if err := litmus.CheckSortKeyPartition(p, symmetry, campaignBudget); err != nil {
				t.Errorf("symmetry=%v: %v", symmetry, err)
			}
		}
	}
	eachGenerated(t, generatedSets, func(p litmus.Program) string {
		return errString(litmus.CheckSortKeyPartition(p, false, campaignBudget))
	})
}
