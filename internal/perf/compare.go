package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Compare semantics. Entries and metrics are matched by name between a
// baseline ("old") and a candidate ("new") report:
//
//   - exact metrics are compared exactly. Any drift — in either direction
//     — gates: a deterministic quantity that changed means the measured
//     computation itself changed, which must be acknowledged by
//     refreshing the committed baseline (see README "Performance
//     tracking"). The classification still records the direction
//     (lower = improved, higher = regressed).
//   - host metrics compare by a relative noise threshold on the minimum
//     over repetitions: new > old·(1+t) regresses, new < old·(1−t)
//     improves, anything in between is unchanged. Only regressions gate.
//     allocs/op of an entry with a fixed goroutine count barely depends
//     on the machine (a Go allocation count, not a timing), so it
//     compares under AllocsThreshold whenever that is tighter than the
//     given threshold: a generous cross-machine threshold for timings
//     then still catches an allocation regression. A PerCPU entry's
//     allocation count follows the host's CPU count, so it keeps the
//     given threshold.
//   - an entry or metric present in the baseline but absent from the
//     candidate is missing (gates); present only in the candidate it is
//     added (informational).

// AllocsThreshold caps the relative noise threshold for allocs/op of
// entries that are not PerCPU. Run at GOMAXPROCS 1 to 32, no such entry
// of the ci suite varied by more than 1%, and the worst drift against the
// committed baseline is +11.4% (sim/msgpass/swcc/4t, 306 -> 341); a real
// allocation regression (a closure or a buffer per operation) moves an
// entry by far more.
const AllocsThreshold = 0.15

// Classification classes.
const (
	ClassImproved  = "improved"
	ClassRegressed = "regressed"
	ClassUnchanged = "unchanged"
	ClassMissing   = "missing"
	ClassAdded     = "added"
)

// Delta is the comparison of one metric of one entry.
type Delta struct {
	Entry  string
	Metric string
	Old    float64
	New    float64
	// Pct is the relative change in percent (new vs old).
	Pct   float64
	Class string
	Exact bool
}

// gates reports whether this delta should fail a comparison: noisy
// regressions, anything missing, and exact metrics that changed in either
// direction.
func (d Delta) gates() bool {
	switch d.Class {
	case ClassRegressed, ClassMissing:
		return true
	case ClassImproved:
		return d.Exact // a changed deterministic metric needs a baseline refresh
	}
	return false
}

// Comparison is a completed report diff.
type Comparison struct {
	Threshold float64
	Deltas    []Delta
}

// Failures returns the deltas that gate (see Delta.gates).
func (c *Comparison) Failures() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.gates() {
			out = append(out, d)
		}
	}
	return out
}

// Ok reports a clean comparison: no regressions, nothing missing, no
// exact-metric drift.
func (c *Comparison) Ok() bool { return len(c.Failures()) == 0 }

// String renders the comparison as a table of changed metrics followed by
// a summary line; unchanged metrics are counted, not listed.
func (c *Comparison) String() string {
	var b strings.Builder
	unchanged := 0
	for _, d := range c.Deltas {
		if d.Class == ClassUnchanged {
			unchanged++
			continue
		}
		kind := ""
		if d.Exact {
			kind = " [exact]"
		}
		switch d.Class {
		case ClassMissing:
			fmt.Fprintf(&b, "  MISSING   %s %s%s (baseline %.6g)\n", d.Entry, d.Metric, kind, d.Old)
		case ClassAdded:
			fmt.Fprintf(&b, "  added     %s %s%s (%.6g)\n", d.Entry, d.Metric, kind, d.New)
		default:
			pct := ""
			if d.Old != 0 {
				pct = fmt.Sprintf(" (%+.1f%%)", d.Pct)
			}
			fmt.Fprintf(&b, "  %-9s %s %s%s: %.6g -> %.6g%s\n",
				d.Class, d.Entry, d.Metric, kind, d.Old, d.New, pct)
		}
	}
	fails := c.Failures()
	fmt.Fprintf(&b, "compared %d metrics (threshold %.0f%%, allocs/op %.0f%%): %d unchanged, %d gating failures\n",
		len(c.Deltas), c.Threshold*100, min(c.Threshold, AllocsThreshold)*100, unchanged, len(fails))
	for _, d := range fails {
		reason := d.Class
		if d.Exact && d.Class != ClassMissing {
			reason = d.Class + ": exact metric changed (refresh the baseline if intentional)"
		}
		fmt.Fprintf(&b, "  FAIL %s %s: %s\n", d.Entry, d.Metric, reason)
	}
	return b.String()
}

// Compare diffs a candidate report against a baseline. threshold is the
// relative noise tolerance for host metrics (e.g. 0.10 = 10%). Reports
// with different schema versions cannot be compared.
func Compare(base, cand *Report, threshold float64) (*Comparison, error) {
	if base.Schema != cand.Schema {
		return nil, fmt.Errorf("perf: schema mismatch: baseline v%d vs candidate v%d", base.Schema, cand.Schema)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("perf: negative threshold %v", threshold)
	}
	c := &Comparison{Threshold: threshold}
	for i := range base.Entries {
		oe := &base.Entries[i]
		ne := cand.Entry(oe.Name)
		if ne == nil {
			c.Deltas = append(c.Deltas, Delta{Entry: oe.Name, Metric: "*", Class: ClassMissing})
			continue
		}
		for _, om := range oe.Metrics {
			nm := ne.Metric(om.Name)
			if nm == nil {
				c.Deltas = append(c.Deltas, Delta{
					Entry: oe.Name, Metric: om.Name, Old: om.Value,
					Class: ClassMissing, Exact: om.Exact,
				})
				continue
			}
			c.Deltas = append(c.Deltas, classify(oe.Name, om, *nm, threshold, oe.PerCPU || ne.PerCPU))
		}
		for _, nm := range ne.Metrics {
			if oe.Metric(nm.Name) == nil {
				c.Deltas = append(c.Deltas, Delta{
					Entry: oe.Name, Metric: nm.Name, New: nm.Value,
					Class: ClassAdded, Exact: nm.Exact,
				})
			}
		}
	}
	for i := range cand.Entries {
		if base.Entry(cand.Entries[i].Name) == nil {
			c.Deltas = append(c.Deltas, Delta{Entry: cand.Entries[i].Name, Metric: "*", Class: ClassAdded})
		}
	}
	return c, nil
}

// classify diffs one matched metric pair; perCPU marks an entry whose
// allocation count depends on the host's CPU count.
func classify(entry string, om, nm Metric, threshold float64, perCPU bool) Delta {
	d := Delta{Entry: entry, Metric: om.Name, Old: om.Value, New: nm.Value, Exact: om.Exact || nm.Exact}
	if om.Value != 0 {
		d.Pct = 100 * (nm.Value - om.Value) / math.Abs(om.Value)
	}
	if d.Exact {
		switch {
		case nm.Value == om.Value:
			d.Class = ClassUnchanged
		case nm.Value < om.Value:
			d.Class = ClassImproved
		default:
			d.Class = ClassRegressed
		}
		return d
	}
	if om.Name == "allocs/op" && !perCPU {
		threshold = min(threshold, AllocsThreshold)
	}
	switch {
	case nm.Value > om.Value*(1+threshold):
		d.Class = ClassRegressed
	case nm.Value < om.Value*(1-threshold):
		d.Class = ClassImproved
	default:
		d.Class = ClassUnchanged
	}
	return d
}

// ParseThreshold accepts "10%" or "0.1" forms.
func ParseThreshold(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("perf: bad threshold %q: %w", s, err)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("perf: negative threshold %q", s)
	}
	return v, nil
}

// WriteJSON serializes the report (indented, trailing newline).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadReport reads and validates a BENCH.json file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Schema == 0 {
		return nil, fmt.Errorf("perf: %s: missing schema version", path)
	}
	return &r, nil
}
