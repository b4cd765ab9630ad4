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
		{name: "table1", args: []string{"-table1"}},
		{name: "all", args: []string{"-all"}},
		{name: "prog", args: []string{"-prog", "fig5-annotated"}},
		{name: "prog workers", args: []string{"-prog", "sb-drf", "-workers", "8"}},
		{name: "prog default workers", args: []string{"-prog", "sb-drf", "-workers", "0", "-maxstates", "0"}},
		{name: "reference engine", args: []string{"-prog", "sb-drf", "-workers", "1", "-memoize=false"}},
		{name: "symmetry", args: []string{"-prog", "iriw-sym3", "-symmetry", "-stats"}},
		{name: "budget", args: []string{"-prog", "stress-independent", "-maxstates", "1000"}},
		{name: "spec all", args: []string{"-spec", "all", "-runs", "2"}},
		{name: "spec platform", args: []string{"-spec", "swcc", "-runs", "2", "-platform", "1024"}},
		{name: "spec default runs", args: []string{"-spec", "dsm", "-runs", "0"}},
		{name: "spec fault", args: []string{"-spec", "swcc", "-fault", "release-without-flush"}},
		{name: "fuzz", args: []string{"-fuzz", "-seed", "1", "-n", "500", "-shrink"}},
		{name: "fuzz racy", args: []string{"-fuzz", "-n", "500", "-mode", "racy", "-fuzzbackends", "swcc,dsm"}},
		{name: "fuzz mixed placement", args: []string{"-fuzz", "-fuzzbackends", "mixed,nocc"}},
		{name: "fuzz speccheck", args: []string{"-fuzz", "-seed", "3", "-n", "150", "-speccheck", "-maxblock", "1"}},

		{name: "negative workers", args: []string{"-prog", "sb-drf", "-workers", "-3"}, contains: "-workers must be non-negative, got -3"},
		{name: "negative maxstates", args: []string{"-prog", "sb-drf", "-maxstates", "-5"}, contains: "-maxstates must be non-negative, got -5"},
		{name: "negative fuzz runs", args: []string{"-fuzz", "-runs", "-1"}, contains: "-runs must be non-negative, got -1"},
		{name: "negative spec runs", args: []string{"-spec", "dsm", "-runs", "-1"}, contains: "-runs must be non-negative"},
		{name: "negative platform", args: []string{"-spec", "dsm", "-platform", "-8"}, contains: "-platform must be a positive tile count, got -8"},
		{name: "zero platform", args: []string{"-spec", "dsm", "-platform", "0"}, contains: "-platform must be a positive tile count"},
		{name: "negative n", args: []string{"-fuzz", "-n", "-4"}, contains: "-n must be a positive program count, got -4"},
		{name: "zero n", args: []string{"-fuzz", "-n", "0"}, contains: "-n must be a positive program count"},
		{name: "zero maxblock", args: []string{"-fuzz", "-maxblock", "0"}, contains: "bad -maxblock 0"},
		{name: "symmetry without memo", args: []string{"-prog", "iriw", "-symmetry", "-memoize=false"}, contains: "-symmetry requires -memoize"},
		{name: "bad mode", args: []string{"-fuzz", "-mode", "chaos"}, contains: "bad -mode"},
		{name: "bad fault", args: []string{"-spec", "swcc", "-fault", "bogus"}, contains: "bad -fault"},
		{name: "bad fuzz backend", args: []string{"-fuzz", "-fuzzbackends", "swcc,bogus"}, contains: "bad -fuzzbackends entry"},
		{name: "bad spec", args: []string{"-spec", "bogus"}, contains: `bad -spec "bogus"`},
		{name: "unknown program", args: []string{"-prog", "nope"}, contains: `unknown program "nope"`},
		{name: "unknown flag", args: []string{"-queue", "wheel"}, contains: "flag provided but not defined: -queue"},
		{name: "stray argument", args: []string{"-prog", "sb-drf", "extra"}, contains: `unexpected argument "extra"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("pmclitmus", flag.ContinueOnError)
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
