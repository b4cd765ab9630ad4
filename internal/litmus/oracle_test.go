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

// Generated programs as the fuzz campaign explores them (effective
// program, memoized, one worker, the campaign's budget): the verify
// corpus — mixed-mode seeds 1 000 000 to 1 000 159 — plus 200 drf and 200
// racy programs.
func TestDoUndoMatchesCloneWalkerOnGenerated(t *testing.T) {
	const campaignBudget = 300_000
	sets := []struct {
		mode  fuzz.Mode
		first int64
		n     int
	}{
		{fuzz.ModeMixed, 1_000_000, 160},
		{fuzz.ModeDRF, 1, 200},
		{fuzz.ModeRacy, 1, 200},
	}
	const chunk = 20 // programs per parallel subtest
	m := explorerMode{"memo", 1, true, false}
	for _, set := range sets {
		for first := set.first; first < set.first+int64(set.n); first += chunk {
			t.Run(fmt.Sprintf("%s-%d", set.mode, first), func(t *testing.T) {
				t.Parallel()
				for seed := first; seed < first+chunk; seed++ {
					p := conform.EffectiveProgram(fuzz.Generate(seed, fuzz.GenConfig{Mode: set.mode}))
					if d := diffEngines(p, m, campaignBudget); d != "" {
						t.Errorf("seed %d: %s\n%s", seed, d, fuzz.Render(p))
					}
				}
			})
		}
	}
}
