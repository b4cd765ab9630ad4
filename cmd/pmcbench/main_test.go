package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"pmc/internal/cli"
)

// TestParseFlags pins the command-line checks: every accepted spelling
// below must keep parsing, and every rejection must be a usage error
// (exit 2) whose message names the bad flag.
func TestParseFlags(t *testing.T) {
	tests := []struct {
		name     string
		args     []string
		contains string // expected error substring; "" = accepted
	}{
		{name: "no flags", args: nil},
		{name: "list", args: []string{"-list"}},
		{name: "suite", args: []string{"-suite", "ci", "-reps", "3", "-json", "BENCH.json"}},
		{name: "suite default reps", args: []string{"-suite", "ci", "-reps", "0"}},
		{name: "suite cached", args: []string{"-suite", "ci", "-cache", ".pmcd-cache", "-cachekey", "src-1", "-json", "BENCH.json"}},
		{name: "suite profiled", args: []string{"-suite", "full", "-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof", "-q"}},
		{name: "compare", args: []string{"-compare", "BENCH_baseline.json", "BENCH.json"}},
		{name: "compare trailing threshold", args: []string{"-compare", "BENCH_baseline.json", "BENCH.json", "-threshold", "400%"}},
		{name: "compare fraction threshold", args: []string{"-threshold", "0.1", "-compare", "a.json", "b.json"}},

		{name: "negative reps", args: []string{"-suite", "ci", "-reps", "-2"}, contains: "-reps must be non-negative, got -2"},
		{name: "unknown suite", args: []string{"-suite", "nightly"}, contains: "nightly"},
		{name: "cachekey without cache", args: []string{"-suite", "ci", "-cachekey", "x"}, contains: "-cachekey requires -cache"},
		{name: "bad threshold", args: []string{"-compare", "a.json", "b.json", "-threshold", "lots"}, contains: `bad threshold "lots"`},
		{name: "negative threshold", args: []string{"-compare", "a.json", "b.json", "-threshold", "-5%"}, contains: "negative threshold"},
		{name: "compare without candidate", args: []string{"-compare", "a.json"}, contains: "exactly one candidate report argument, got 0"},
		{name: "compare two candidates", args: []string{"-compare", "a.json", "b.json", "c.json"}, contains: "got 2"},
		{name: "suite stray argument", args: []string{"-suite", "ci", "BENCH.json"}, contains: `unexpected argument "BENCH.json"`},
		{name: "list stray argument", args: []string{"-list", "x"}, contains: `unexpected argument "x"`},
		{name: "unknown flag", args: []string{"-repz", "3"}, contains: "flag provided but not defined: -repz"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("pmcbench", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			_, err := parseFlags(fs, tt.args)
			if tt.contains == "" {
				if err != nil {
					t.Fatalf("parseFlags(%q) = %v, want accepted", tt.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.contains) {
				t.Fatalf("parseFlags(%q) = %v, want an error containing %q", tt.args, err, tt.contains)
			}
			var ue cli.UsageError
			if !errors.As(err, &ue) {
				t.Fatalf("parseFlags(%q) = %v, want a usage error (exit 2)", tt.args, err)
			}
		})
	}
}
