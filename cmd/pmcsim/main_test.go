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
		{name: "experiment", args: []string{"-exp", "fig8"}},
		{name: "experiment small", args: []string{"-exp", "fig8", "-scale", "small", "-tiles", "8"}},
		{name: "all full", args: []string{"-all", "-scale", "full", "-parallel", "1"}},
		{name: "run", args: []string{"-run", "radiosity", "-backend", "nocc", "-tiles", "32"}},
		{name: "run clustered", args: []string{"-run", "radiosity", "-backend", "cdsm", "-tiles", "64", "-topo", "cluster:8xring"}},
		{name: "run placed", args: []string{"-run", "stencil", "-backend", "nocc", "-tiles", "8", "-place", "seg*=dsm,stencil-bar-sense=dsm"}},
		{name: "run loaded", args: []string{"-run", "server", "-backend", "dsm", "-tiles", "8", "-load", "16"}},
		{name: "run traced", args: []string{"-run", "radiosity", "-trace", "out.json"}},
		{name: "run explicit clusters", args: []string{"-run", "kvstore", "-clusters", "4", "-tiles", "16"}},
		{name: "sweep", args: []string{"-sweep", "splash", "-backends", "nocc,swcc,dsm,spm,cdsm,cspm", "-tilelist", "2,4", "-topo", "both", "-scale", "small", "-json", "out.json"}},
		{name: "sweep parallel", args: []string{"-sweep", "all", "-parallel", "2", "-csv", "-"}},

		{name: "negative tiles with run", args: []string{"-run", "radiosity", "-backend", "nocc", "-tiles", "-4"}, contains: "-tiles must be non-negative, got -4"},
		{name: "negative tiles with exp", args: []string{"-exp", "fig8", "-tiles", "-4"}, contains: "-tiles must be non-negative"},
		{name: "negative parallel", args: []string{"-sweep", "splash", "-parallel", "-2"}, contains: "-parallel must be non-negative, got -2"},
		{name: "bogus scale with run", args: []string{"-run", "radiosity", "-scale", "bogus"}, contains: "-scale does not apply to -run"},
		{name: "valid scale with run", args: []string{"-run", "radiosity", "-scale", "small"}, contains: "-scale does not apply to -run"},
		{name: "unknown scale", args: []string{"-exp", "fig8", "-scale", "bogus"}, contains: `unknown -scale "bogus"`},
		{name: "negative load", args: []string{"-run", "server", "-load", "-1"}, contains: "-load must be positive"},
		{name: "negative clusters", args: []string{"-clusters", "-1"}, contains: "-clusters must be non-negative"},
		{name: "too many clusters", args: []string{"-clusters", "100000"}, contains: "exceeds the address map"},
		{name: "uneven clusters", args: []string{"-clusters", "3", "-tiles", "16"}, contains: "does not divide evenly into 3 clusters"},
		{name: "bad queue", args: []string{"-queue", "wheel"}, contains: "flag provided but not defined: -queue"},
		{name: "place without backend", args: []string{"-place", "seg"}, contains: `bad -place entry "seg"`},
		{name: "place unknown backend", args: []string{"-place", "seg=bogus"}, contains: `unknown backend "bogus"`},
		{name: "place duplicate", args: []string{"-place", "a=dsm,a=spm"}, contains: `duplicate -place entry for "a"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("pmcsim", flag.ContinueOnError)
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
