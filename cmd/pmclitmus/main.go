// Command pmclitmus exhaustively explores the outcomes of the paper's
// litmus programs under the PMC memory model.
//
// Usage:
//
//	pmclitmus -list              list cataloged programs
//	pmclitmus -prog fig5-annotated
//	pmclitmus -all               explore every program
//	pmclitmus -table1            print the ordering-rule table
//	pmclitmus -prog sb-drf -workers 8
//	pmclitmus -prog sb-drf -workers 1 -memoize=false   (reference engine)
//	pmclitmus -prog iriw-sym3 -symmetry -stats         (orbit-collapsed states)
//
// Compositional spec checking — drive a backend against its declarative
// ordering spec at fixed interface scale (cost independent of -platform):
//
//	pmclitmus -spec all
//	pmclitmus -spec swcc -platform 1024
//	pmclitmus -spec swcc -fault release-without-flush   (must fail)
//
// Differential fuzzing — generate seeded random annotated programs,
// explore each under the model, execute on every backend, and shrink any
// violation to a minimal counterexample:
//
//	pmclitmus -fuzz -seed 1 -n 500 -shrink
//	pmclitmus -fuzz -seed 1 -n 500 -mode racy -fuzzbackends swcc,dsm
//	pmclitmus -fuzz -seed 1 -n 200 -shrink -fault release-without-flush
//
// Every violation line prints the program seed; re-running with -seed
// <that seed> -n 1 reproduces it exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pmc"
	"pmc/internal/cli"
)

// usagef marks a bad flag value; fail prints the usage and exits 2 for
// those, 1 for runtime failures — an exploration error, a campaign that
// found violations (the shared pmc command convention).
func usagef(format string, args ...any) error { return cli.Usagef(format, args...) }

func fail(err error) { cli.Fail("pmclitmus", err) }

type engineOpts struct {
	workers   int
	memoize   bool
	symmetry  bool
	maxStates int
	stats     bool
}

func explore(p pmc.LitmusProgram, o engineOpts) error {
	x := pmc.NewLitmusExplorer(p)
	x.Workers = o.workers
	x.Memoize = o.memoize
	x.Symmetry = o.symmetry
	if o.maxStates > 0 {
		x.MaxStates = o.maxStates
	}
	res, err := x.Run()
	if err != nil {
		return err
	}
	fmt.Printf("%s:\n%s", p.Name, res)
	if o.stats {
		fmt.Printf("states: %d\n", res.States)
	}
	fmt.Println()
	return nil
}

func runFuzz(o *options) error {
	cfg := pmc.FuzzConfig{
		Seed:      o.seed,
		N:         o.n,
		Gen:       pmc.FuzzGenConfig{Mode: o.mode, MaxBlockWords: o.maxBlock},
		Backends:  o.fuzzBackends,
		Runs:      o.runs,
		Workers:   o.workers,
		Shrink:    o.shrink,
		SpecCheck: o.specCheck,
		MaxStates: o.maxStates,
		Progress:  os.Stderr,
	}
	if fs := o.fault; fs.Enabled() {
		fmt.Printf("injecting fault %q into every checked backend\n", fs)
		cfg.MakeBackend = func(name string) (pmc.Backend, error) {
			b, err := pmc.BackendByName(name)
			if err != nil {
				return nil, err
			}
			return pmc.InjectFaults(b, fs), nil
		}
	}
	sum, err := pmc.FuzzRun(cfg)
	if err != nil {
		return err
	}
	fmt.Print(sum)
	if !sum.Ok() {
		return fmt.Errorf("campaign found %d violations, %d run errors, %d spec divergences",
			len(sum.Violations), len(sum.Errors), len(sum.SpecDivergences))
	}
	return nil
}

// runSpec checks backends against their declarative ordering specs at
// interface scale; with a fault injected, a passing check is the failure.
func runSpec(o *options) error {
	names := []string{o.spec}
	if o.spec == "all" {
		names = pmc.BackendNames()
	}
	failed := 0
	for _, name := range names {
		s, err := pmc.SpecForBackend(name)
		if err != nil {
			return err
		}
		opt := pmc.SpecCheckOptions{Runs: o.runs}
		if fs := o.fault; fs.Enabled() {
			name := name
			opt.Backend = func() (pmc.Backend, error) {
				b, err := pmc.BackendByName(name)
				if err != nil {
					return nil, err
				}
				return pmc.InjectFaults(b, fs), nil
			}
		}
		r, err := pmc.SpecCheckBackend(s, pmc.SpecPlatform{Tiles: o.platform}, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		if !r.Ok() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d backends diverged from their specs", failed, len(names))
	}
	return nil
}

// options is the parsed and validated command line.
type options struct {
	engineOpts
	prog              string
	all, list, table1 bool
	spec              string
	platform          int
	doFuzz            bool
	seed              int64
	n, runs, maxBlock int
	shrink, specCheck bool
	mode              pmc.FuzzMode
	fuzzBackends      []string
	fault             pmc.FaultSet
	program           pmc.LitmusProgram // the -prog program, once looked up
}

// parseFlags parses args into fs and checks every flag value that can be
// checked before any exploration or simulation starts: a bad value is a
// usage error (exit 2), not a run failure, and no value is silently
// defaulted. A negative count is rejected; 0 keeps the default its flag
// documents.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	var o options
	fs.StringVar(&o.prog, "prog", "", "program name to explore (see -list)")
	fs.BoolVar(&o.all, "all", false, "explore every cataloged program")
	fs.BoolVar(&o.list, "list", false, "list programs")
	fs.BoolVar(&o.table1, "table1", false, "print the Table I ordering rules")
	fs.IntVar(&o.workers, "workers", 0, "exploration goroutines (0 = GOMAXPROCS, 1 = sequential)")
	fs.BoolVar(&o.memoize, "memoize", true, "deduplicate canonical states (disable for the reference tree engine)")
	fs.BoolVar(&o.symmetry, "symmetry", false, "collapse thread/location-symmetric states (outcomes identical; requires -memoize)")
	fs.IntVar(&o.maxStates, "maxstates", 0, "state budget (0 = default)")
	fs.BoolVar(&o.stats, "stats", false, "also print explored-state counts")

	fs.StringVar(&o.spec, "spec", "", `check a backend against its declarative ordering spec ("all" or a backend name); composes with -fault and -runs`)
	fs.IntVar(&o.platform, "platform", 32, "spec: deployment tile count being certified (the check's cost is independent of it)")

	fs.BoolVar(&o.doFuzz, "fuzz", false, "run a seeded differential fuzzing campaign")
	fs.Int64Var(&o.seed, "seed", 1, "fuzz: base seed (program i uses seed+i)")
	fs.IntVar(&o.n, "n", 200, "fuzz: number of programs to generate")
	fs.BoolVar(&o.shrink, "shrink", false, "fuzz: shrink violations to minimal counterexamples")
	mode := fs.String("mode", "mixed", "fuzz: generation mode (drf, racy, mixed)")
	backends := fs.String("fuzzbackends", "", "fuzz: comma-separated backends (default: nocc,swcc,dsm,spm)")
	fault := fs.String("fault", "", "fuzz/spec: inject a protocol fault (e.g. release-without-flush) into every backend")
	fs.IntVar(&o.runs, "runs", 3, "fuzz/spec: perturbed simulator runs per program and backend (0 = the check's default)")
	fs.BoolVar(&o.specCheck, "speccheck", false, "fuzz: also attribute each pair's recorded trace to the backend's ordering spec")
	fs.IntVar(&o.maxBlock, "maxblock", 4, "fuzz: max words of multi-word locations exercised by block reads/writes (1 = word-only)")
	if err := fs.Parse(args); err != nil {
		// An unknown or unparseable flag is a usage error too.
		return nil, cli.UsageError{Err: err}
	}
	if len(fs.Args()) > 0 {
		return nil, usagef("unexpected argument %q", fs.Arg(0))
	}

	switch {
	case o.workers < 0:
		return nil, usagef("-workers must be non-negative, got %d", o.workers)
	case o.maxStates < 0:
		return nil, usagef("-maxstates must be non-negative, got %d", o.maxStates)
	case o.runs < 0:
		return nil, usagef("-runs must be non-negative, got %d", o.runs)
	case o.platform < 1:
		return nil, usagef("-platform must be a positive tile count, got %d", o.platform)
	case o.n < 1:
		return nil, usagef("-n must be a positive program count, got %d", o.n)
	case o.maxBlock < 1:
		return nil, usagef("bad -maxblock %d: must be at least 1 (1 = word-only programs)", o.maxBlock)
	case o.symmetry && !o.memoize:
		return nil, usagef("-symmetry requires -memoize (orbit results live in the memo table)")
	}
	var err error
	if o.mode, err = pmc.ParseFuzzMode(*mode); err != nil {
		return nil, usagef("bad -mode: %v", err)
	}
	if o.fault, err = pmc.ParseFaultSet(*fault); err != nil {
		return nil, usagef("bad -fault: %v", err)
	}
	if *backends != "" {
		o.fuzzBackends = strings.Split(*backends, ",")
		for _, b := range o.fuzzBackends {
			if b == pmc.MixedBackend {
				// Pseudo-backend: each generated program carries a
				// per-object placement and every object runs on its
				// placed backend.
				continue
			}
			if _, err := pmc.BackendByName(b); err != nil {
				return nil, usagef(`bad -fuzzbackends entry: %v (or "mixed" for per-object placement)`, err)
			}
		}
	}
	if o.spec != "" && o.spec != "all" {
		if _, err := pmc.SpecForBackend(o.spec); err != nil {
			return nil, usagef(`bad -spec %q: %v (or "all")`, o.spec, err)
		}
	}
	if o.prog != "" {
		var ok bool
		if o.program, ok = pmc.LitmusByName(o.prog); !ok {
			return nil, usagef("unknown program %q (see -list)", o.prog)
		}
	}
	return &o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail(err)
	}
	switch {
	case o.spec != "":
		if err := runSpec(o); err != nil {
			fail(err)
		}
		return
	case o.doFuzz:
		if err := runFuzz(o); err != nil {
			fail(err)
		}
		return
	case o.table1:
		fmt.Print(pmc.RenderTableI())
		return
	case o.list:
		fmt.Println("programs:")
		for _, p := range pmc.LitmusCatalog() {
			fmt.Printf("  %-24s %d threads\n", p.Name, len(p.Threads))
		}
		return
	case o.all:
		for _, p := range pmc.LitmusCatalog() {
			if err := explore(p, o.engineOpts); err != nil {
				fail(err)
			}
		}
		return
	case o.prog != "":
		if err := explore(o.program, o.engineOpts); err != nil {
			fail(err)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}
