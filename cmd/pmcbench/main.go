// Command pmcbench is the continuous-benchmarking driver: it runs a
// declarative benchmark suite across the simulator, the litmus engines
// and the fuzzer, serializes the measurements to the versioned BENCH.json
// schema, and diffs two such reports to gate perf regressions.
//
// Usage:
//
//	pmcbench -list                          list suites and their entries
//	pmcbench -suite ci -reps 3 -json BENCH.json
//	pmcbench -suite ci -cache .pmcd-cache -cachekey "$SRC_HASH" -json BENCH.json
//	pmcbench -suite full -cpuprofile cpu.pprof -memprofile mem.pprof
//	pmcbench -compare BENCH_baseline.json BENCH.json -threshold 10%
//
// Compare exits 0 when clean and 1 when gated: a host-time/alloc
// regression past the threshold, a missing entry or metric, or any drift
// in an exact (deterministic) metric such as sim-cycles — exact drift in
// either direction means the measured computation changed and the
// committed baseline must be refreshed deliberately. Usage errors exit 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"pmc"
	"pmc/internal/cli"
)

// options is the parsed and validated command line.
type options struct {
	list, quiet                                      bool
	suite, jsonOut, cpuProfile, memProfile, cacheDir string
	cacheKey, compare                                string
	reps                                             int
	threshold                                        float64
	candidate                                        string // the -compare candidate report
}

// parseFlags parses args into fs and checks every flag value that can be
// checked before any benchmark runs: a bad value is a usage error (exit 2),
// not a run failure, and no value is silently defaulted.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	var o options
	fs.BoolVar(&o.list, "list", false, "list benchmark suites and entries")
	fs.StringVar(&o.suite, "suite", "", "suite to run: "+fmt.Sprint(pmc.BenchSuites()))
	fs.IntVar(&o.reps, "reps", 0, "timed repetitions per entry (0 = 5)")
	fs.StringVar(&o.jsonOut, "json", "", `write the BENCH.json report to this file ("-" = stdout)`)
	fs.BoolVar(&o.quiet, "q", false, "suppress per-entry progress lines")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the suite run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile of the suite run to this file")
	fs.StringVar(&o.cacheDir, "cache", "", "content-addressed measurement cache directory; unchanged entries are answered without re-simulation")
	fs.StringVar(&o.cacheKey, "cachekey", "", "cache-key salt (default: the build's code version); CI passes a source-content hash")

	fs.StringVar(&o.compare, "compare", "", "baseline BENCH.json to compare against; the candidate report is the positional argument")
	threshold := fs.String("threshold", "10%", `with -compare: relative host-metric noise tolerance ("10%" or "0.1"); allocs/op gates at no more than 15%`)
	// flag stops at the first positional argument, so the documented
	// shape "-compare old.json new.json -threshold 10%" leaves trailing
	// flags unparsed; re-parse them, collecting the positionals.
	var positional []string
	for {
		if err := fs.Parse(args); err != nil {
			// An unknown or unparseable flag is a usage error too.
			return nil, cli.UsageError{Err: err}
		}
		if fs.NArg() == 0 {
			break
		}
		positional = append(positional, fs.Arg(0))
		args = fs.Args()[1:]
	}

	switch {
	case o.reps < 0:
		return nil, usagef("-reps must be non-negative, got %d", o.reps)
	case o.cacheKey != "" && o.cacheDir == "":
		return nil, usagef("-cachekey requires -cache")
	}
	if o.suite != "" {
		if _, err := pmc.BenchSuite(o.suite); err != nil {
			return nil, cli.UsageError{Err: err}
		}
	}
	var err error
	if o.threshold, err = pmc.BenchParseThreshold(*threshold); err != nil {
		return nil, cli.UsageError{Err: err}
	}
	if o.compare != "" {
		if len(positional) != 1 {
			return nil, usagef("-compare needs exactly one candidate report argument, got %d", len(positional))
		}
		o.candidate = positional[0]
	} else if len(positional) > 0 {
		// A mistyped invocation (e.g. "-suite ci BENCH.json" without
		// -json) fails loudly instead of silently discarding the argument.
		return nil, usagef("unexpected argument %q (only -compare takes a positional report path)", positional[0])
	}
	return &o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail(err)
	}
	switch {
	case o.list:
		for _, name := range pmc.BenchSuites() {
			spec, err := pmc.BenchSuite(name)
			if err != nil {
				fail(err)
			}
			fmt.Printf("suite %s (%d entries):\n", name, len(spec.Entries))
			for _, e := range spec.Entries {
				fmt.Printf("  %s\n", e.Name)
			}
		}
		return
	case o.compare != "":
		if err := runCompare(o.compare, o.candidate, o.threshold); err != nil {
			fail(err)
		}
		return
	case o.suite != "":
		if err := runSuite(o.suite, o.reps, o.jsonOut, o.cpuProfile, o.memProfile, o.cacheDir, o.cacheKey, o.quiet); err != nil {
			fail(err)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}

// usagef marks a bad flag value; fail prints the usage and exits 2 for
// those, 1 for runtime failures — a benchmark error, a gated comparison
// (the shared pmc command convention).
func usagef(format string, args ...any) error { return cli.Usagef(format, args...) }

func fail(err error) { cli.Fail("pmcbench", err) }

func runSuite(name string, reps int, jsonOut, cpuProfile, memProfile, cacheDir, cacheKey string, quiet bool) error {
	spec, err := pmc.BenchSuite(name)
	if err != nil {
		return err
	}
	spec.Reps = reps
	if !quiet {
		spec.Progress = os.Stderr
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var report *pmc.BenchReport
	if cacheDir != "" {
		store, err := pmc.OpenPmcdStore(cacheDir, 0)
		if err != nil {
			return err
		}
		var stats pmc.BenchCacheStats
		report, stats, err = pmc.BenchRunCached(spec, store, cacheKey)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench cache: %d hits, %d misses\n", stats.Hits, stats.Misses)
	} else {
		report, err = pmc.BenchRun(spec)
		if err != nil {
			return err
		}
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return err
		}
	}
	if jsonOut == "" || jsonOut == "-" {
		return report.WriteJSON(os.Stdout)
	}
	f, err := os.Create(jsonOut)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d entries to %s\n", len(report.Entries), jsonOut)
	return nil
}

func runCompare(basePath, candPath string, threshold float64) error {
	base, err := pmc.BenchLoadReport(basePath)
	if err != nil {
		return err
	}
	cand, err := pmc.BenchLoadReport(candPath)
	if err != nil {
		return err
	}
	cmp, err := pmc.BenchCompare(base, cand, threshold)
	if err != nil {
		return err
	}
	fmt.Print(cmp)
	if !cmp.Ok() {
		return fmt.Errorf("%d gating failures vs %s", len(cmp.Failures()), basePath)
	}
	return nil
}
