package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pmc/internal/conform"
	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/rt"
	"pmc/internal/soc"
	"pmc/internal/spec"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// The verify workload: differential fuzz campaigns against the Table I
// model (fuzz.Run), in mixed annotation mode, on the paper's four
// backends, with every recorded trace attributed to the backend's ordering
// spec. One job is one campaign of campaignPrograms programs checked by
// verifyWorkers workers. A round checks the whole corpus: the
// corpusCampaigns campaigns of fuzz base seed corpusSeed, in an order the
// run's seed permutes differently in every round. The corpus is fixed
// because program cost is heavy-tailed: a fresh corpus per seed moves the
// median campaign time by about 30% between seeds, which would hide any
// change to the code.
const (
	campaignPrograms = 4
	verifyWorkers    = 2
	corpusCampaigns  = 40
	corpusSeed       = 1
	// tracedCampaigns is the share of the schedule a traced run replays.
	tracedCampaigns = 24
)

var verifyBackends = fuzz.DefaultBackends

// The campaign defaults fuzz.Run applies to a zero Config field (see
// fuzz.Config). The traced replay spells them out; if they drift, the
// replay's tallies stop matching fuzz.Run's and the traced run fails.
const (
	fuzzTiles     = 3
	fuzzRuns      = 3
	fuzzMaxStates = 300_000
	fuzzMaxCycles = 400_000
)

// campaignConfig is campaign k of the corpus: its programs have the fuzz
// seeds 1e6*corpusSeed + 4k ... 1e6*corpusSeed + 4k + 3.
func campaignConfig(k int) fuzz.Config {
	return fuzz.Config{
		Seed:      corpusSeed*1_000_000 + int64(k)*campaignPrograms,
		N:         campaignPrograms,
		Gen:       fuzz.GenConfig{Mode: fuzz.ModeMixed},
		Backends:  verifyBackends,
		Workers:   verifyWorkers,
		SpecCheck: true,
	}
}

// verifySetup resolves the campaign's backends and their ordering specs
// and checks each spec against the model, as a campaign must before its
// spec attribution means anything.
func verifySetup() error {
	for _, b := range verifyBackends {
		if _, err := rt.ByName(b); err != nil {
			return err
		}
		s, err := spec.ForBackend(b)
		if err != nil {
			return err
		}
		if probs := spec.VsModel(&s); len(probs) > 0 {
			return fmt.Errorf("spec %s fails the model: %s", b, probs[0])
		}
	}
	return nil
}

// tallies are a campaign's exact outputs.
type tallies struct {
	Unique, Deduped              int
	SkippedBudget, SkippedStuck  int
	Checked, SpecChecked         int
	Violations, Errors, Diverged int
}

func talliesOf(s *fuzz.Summary) tallies {
	return tallies{
		Unique: s.Unique, Deduped: s.Deduped,
		SkippedBudget: s.SkippedBudget, SkippedStuck: s.SkippedStuck,
		Checked: s.Checked, SpecChecked: s.SpecChecked,
		Violations: len(s.Violations), Errors: len(s.Errors), Diverged: len(s.SpecDivergences),
	}
}

// checked is the number of programs the campaign fully checked.
func (t tallies) checked() int { return t.Unique - t.SkippedBudget - t.SkippedStuck }

// pairs is the number of (program, backend) checks the campaign owes.
func (t tallies) pairs() int64 { return int64(t.checked() * len(verifyBackends)) }

// failures counts failed (program, backend) checks: violations, run
// errors and spec divergences.
func (t tallies) failures() int64 { return int64(t.Violations + t.Errors + t.Diverged) }

// problems lists the ways a campaign's tallies depart from a clean
// campaign of n programs.
func (t tallies) problems(n int) []string {
	var out []string
	if t.Unique+t.Deduped != n {
		out = append(out, fmt.Sprintf("%d unique + %d duplicate programs != %d generated", t.Unique, t.Deduped, n))
	}
	if t.SkippedStuck != 0 {
		out = append(out, fmt.Sprintf("%d generated programs can deadlock", t.SkippedStuck))
	}
	if t.failures() != 0 {
		out = append(out, fmt.Sprintf("%d violations, %d run errors, %d spec divergences", t.Violations, t.Errors, t.Diverged))
	}
	if int64(t.Checked+t.Errors) != t.pairs() || t.SpecChecked != t.Checked {
		out = append(out, fmt.Sprintf("%d checks and %d spec checks for %d program×backend pairs", t.Checked, t.SpecChecked, t.pairs()))
	}
	return out
}

// checkCampaign feeds one campaign's tallies into the report.
func checkCampaign(rep *report, k int, t tallies) {
	for _, p := range t.problems(campaignPrograms) {
		rep.problem("verify campaign %d: %s", k, p)
	}
	rep.ops(t.pairs(), min(t.failures(), t.pairs()))
}

// schedule is the order in which pass k of seed's run checks the corpus
// campaigns.
func schedule(seed int64, k int) []int {
	return roundRand(seed, k).Perm(corpusCampaigns)
}

func runVerify(e *env, seed int64, seconds time.Duration, rep *report) ([]round, latencies, error) {
	set := &setups{what: "resolve the backends and check their specs against the model", fn: func(sw *stopwatch) error {
		sw.start()
		defer sw.stop()
		return verifySetup()
	}}
	var jobs latencies
	first := map[int]tallies{}
	rounds, err := runRounds(rep, seconds, set, func(pass int, r *round) error {
		for _, k := range schedule(seed, pass) {
			c := time.Now()
			sum, err := fuzz.Run(campaignConfig(k))
			jobs = append(jobs, time.Since(c))
			r.jobs++
			if err != nil {
				rep.problem("verify campaign %d: %v", k, err)
				rep.ops(campaignPrograms*int64(len(verifyBackends)), campaignPrograms*int64(len(verifyBackends)))
				continue
			}
			tl := talliesOf(sum)
			checkCampaign(rep, k, tl)
			if want, ok := first[k]; !ok {
				first[k] = tl
			} else if tl != want {
				rep.problem("verify campaign %d: pass %d tallies %+v differ from %+v", k, pass, tl, want)
			}
			r.programs += tl.checked()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	cycles, err := verifiedExample(rep)
	if err != nil {
		return nil, nil, err
	}
	rep.add("sim_cycles_geomean", cycles, "cycles", "recorder-verified msgpass on the four backends")
	return rounds, jobs, nil
}

// verifiedExample runs the paper's running example (msgpass, Figs. 1, 5
// and 6) on each campaign backend with the model recorder attached: every
// read is checked against the model as the run unfolds. It returns the
// geometric mean of the simulated makespans — the workload's simulated
// figure, since conformance checks do not expose their runs' cycles.
func verifiedExample(rep *report) (float64, error) {
	var cycles []float64
	var want uint32
	for i, b := range verifyBackends {
		cfg := soc.DefaultConfig()
		cfg.Tiles = 3
		res, rec, err := workloads.RunVerified(workloads.DefaultMsgPass(), cfg, b)
		rep.ops(1, 0)
		if err == nil {
			err = rec.Err()
		}
		if err != nil {
			rep.problem("verified msgpass on %s: %v", b, err)
			rep.ops(0, 1)
			continue
		}
		if i == 0 {
			want = res.Checksum
		} else if res.Checksum != want {
			rep.problem("verified msgpass on %s: checksum %#x != %#x", b, res.Checksum, want)
		}
		cycles = append(cycles, float64(res.Cycles))
	}
	if len(cycles) == 0 {
		return 0, errors.New("verify: no verified example run completed")
	}
	return geomean(cycles), nil
}

// verifyCounts are the exact work counters of a traced replay.
type verifyCounts struct {
	states, simRuns, recordedOps atomic.Int64
}

// passVerify runs the first tracedCampaigns campaigns of seed's schedule:
// through fuzz.Run when untraced, and through the public calls fuzz.Run
// makes when traced, with a span around each call.
func passVerify(e *env, seed int64, tr *tracer, rep *report) (any, time.Duration, error) {
	var out []tallies
	var counts verifyCounts
	start := time.Now()
	for _, k := range schedule(seed, 0)[:tracedCampaigns] {
		cfg := campaignConfig(k)
		var t tallies
		if tr == nil {
			sum, err := fuzz.Run(cfg)
			if err != nil {
				return nil, 0, err
			}
			t = talliesOf(sum)
		} else {
			var err error
			if t, err = replayCampaign(cfg, tr, int64(k), &counts); err != nil {
				return nil, 0, err
			}
		}
		checkCampaign(rep, k, t)
		out = append(out, t)
	}
	wall := time.Since(start)
	if tr != nil {
		verifyLayers(rep, tr.snapshot(), &counts)
	}
	return out, wall, nil
}

// replayCampaign is fuzz.Run spelled out through the layers' public calls:
// serial generation with fingerprint dedup, then per program one model
// exploration, one conformance check per backend against the shared
// model, and one recorded run per backend attributed to its spec.
func replayCampaign(cfg fuzz.Config, tr *tracer, op int64, counts *verifyCounts) (tallies, error) {
	var t tallies
	campaign := tr.begin("fuzz.campaign", 0, op)
	defer tr.end(campaign)
	type program struct {
		seed int64
		prog litmus.Program
	}
	seen := map[string]bool{}
	var progs []program
	for i := 0; i < cfg.N; i++ {
		s := tr.begin("fuzz.generate", campaign, op)
		seed := cfg.Seed + int64(i)
		p := fuzz.Generate(seed, cfg.Gen)
		fp := litmus.Fingerprint(p)
		tr.end(s)
		if seen[fp] {
			t.Deduped++
			continue
		}
		seen[fp] = true
		progs = append(progs, program{seed, p})
	}
	t.Unique = len(progs)

	var mu sync.Mutex // guards t
	err := sweep.Each(len(progs), cfg.Workers, func(i int) error {
		pr := progs[i]
		ps := tr.begin("fuzz.program", campaign, op)
		defer tr.end(ps)
		eff := conform.EffectiveProgram(pr.prog)
		s := tr.begin("litmus.explore", ps, op)
		x := litmus.NewExplorer(eff)
		x.Workers = 1
		x.MaxStates = fuzzMaxStates
		model, err := x.Run()
		tr.end(s)
		if err != nil {
			if errors.Is(err, litmus.ErrBudget) {
				mu.Lock()
				t.SkippedBudget++
				mu.Unlock()
				return nil
			}
			return fmt.Errorf("fuzz seed %d: %w", pr.seed, err)
		}
		counts.states.Add(int64(model.States))
		if model.Stuck > 0 {
			mu.Lock()
			t.SkippedStuck++
			mu.Unlock()
			return nil
		}
		var local tallies
		for _, b := range cfg.Backends {
			s := tr.begin("conform.check", ps, op)
			rep, err := conform.CheckOpts(pr.prog, b, conform.Options{
				Tiles: fuzzTiles, Runs: fuzzRuns, Seed: pr.seed, MaxCycles: fuzzMaxCycles, Model: model,
			})
			tr.end(s)
			if err != nil {
				local.Errors++
				continue
			}
			counts.simRuns.Add(int64(rep.Runs))
			local.Checked++
			if !rep.Ok() {
				local.Violations++
			}
			sp, err := spec.ForBackend(b)
			if err != nil {
				local.Errors++
				continue
			}
			s = tr.begin("rt.recorded_run", ps, op)
			_, exec, err := conform.ExecuteRecorded(eff, b, conform.Options{
				Tiles: fuzzTiles, Runs: 1, Seed: pr.seed, MaxCycles: fuzzMaxCycles,
			}, uint32(pr.seed))
			tr.end(s)
			counts.simRuns.Add(1)
			if err != nil {
				local.Errors++
				continue
			}
			counts.recordedOps.Add(int64(len(exec.Ops())))
			s = tr.begin("spec.check_trace", ps, op)
			probs := spec.CheckTrace(exec, sp)
			tr.end(s)
			local.SpecChecked++
			if len(probs) > 0 {
				local.Diverged++
			}
		}
		mu.Lock()
		t.Checked += local.Checked
		t.SpecChecked += local.SpecChecked
		t.Violations += local.Violations
		t.Errors += local.Errors
		t.Diverged += local.Diverged
		mu.Unlock()
		return nil
	})
	return t, err
}

// verifyLayers reports the model, fuzz, conformance and spec layers from
// the replay's spans and counters.
func verifyLayers(rep *report, spans []Span, counts *verifyCounts) {
	explore := durations(spans, "litmus.explore")
	states := counts.states.Load()
	rep.add("litmus.explore_ms", median(explore), "ms", fmt.Sprintf("median of %d explorations", len(explore)))
	rep.add("litmus.states", float64(states), "count", "exact")
	usPerState := 0.0
	if states > 0 {
		usPerState = float64(total(spans, "litmus.explore").Nanoseconds()) / 1e3 / float64(states)
	}
	rep.add("litmus.us_per_state", usPerState, "us", "all explorations")
	gen := durations(spans, "fuzz.generate")
	rep.add("fuzz.generate_ms", median(gen), "ms", fmt.Sprintf("median of %d programs, Generate plus Fingerprint", len(gen)))
	prog := summarize(durations(spans, "fuzz.program"), 99)
	rep.add("fuzz.program_p50_ms", prog.P50, "ms", fmt.Sprintf("median of %d programs", prog.N))
	rep.add("fuzz.program_p99_ms", prog.Tail, "ms", prog.note())
	check := durations(spans, "conform.check")
	rep.add("conform.check_ms", median(check), "ms", fmt.Sprintf("median of %d checks", len(check)))
	rep.add("conform.sim_runs", float64(counts.simRuns.Load()), "count", "exact, perturbed plus recorded runs")
	recorded := durations(spans, "rt.recorded_run")
	rep.add("rt.recorded_run_ms", median(recorded), "ms", fmt.Sprintf("median of %d recorded runs", len(recorded)))
	rep.add("rt.recorded_ops", float64(counts.recordedOps.Load()), "count", "exact, model ops recorded")
	trace := durations(spans, "spec.check_trace")
	rep.add("spec.check_trace_ms", median(trace), "ms", fmt.Sprintf("median of %d traces", len(trace)))
}
