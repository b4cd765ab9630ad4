package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// bruteInEdges derives the in-edges of op n straight from TableI, without
// any index: it scans every earlier operation and applies each rule's
// scope as Rule documents it.
//   - Process: the earlier op is by the same process, unless AnyProc.
//   - Location: the earlier op is on the same location, unless one side is
//     a location-less fence.
//   - Init ops (Definition 3, "equivalent to all processes") match the
//     write pattern of every process and the any-process release pattern.
//     A fence's own rows and columns are scoped (F, p, *, *) to real ops,
//     so the init op never orders a fence.
//   - Edges out of an init op are promoted from ≺ℓ to ≺P.
func bruteInEdges(e *Execution, n int) []Edge {
	o := e.Op(n)
	var in []Edge
	for _, r := range TableI {
		if r.New != o.Kind {
			continue
		}
		for from := 0; from < n; from++ {
			q := e.Op(from)
			if !ruleMatches(r, q, o) {
				continue
			}
			ord := r.Ord
			if q.IsInit && ord == OrdLocal {
				ord = OrdProgram
			}
			in = append(in, Edge{From: from, To: n, Ord: ord})
		}
	}
	return in
}

// ruleMatches reports whether earlier op q falls in rule r's Earlier
// pattern for the new op o.
func ruleMatches(r Rule, q, o *Op) bool {
	if q.IsInit {
		initKind := (r.Earlier == KWrite && r.New != KFence) || (r.Earlier == KRelease && r.AnyProc)
		return initKind && q.Loc == o.Loc
	}
	if q.Kind != r.Earlier || (!r.AnyProc && q.Proc != o.Proc) {
		return false
	}
	return q.Loc == o.Loc || q.Loc == NoLoc || o.Loc == NoLoc
}

// sameEdgeMultiset reports "" when a and b hold the same edges, counted
// with multiplicity and in any order.
func sameEdgeMultiset(a, b []Edge) string {
	byEdge := func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To), cmp.Compare(x.Ord, y.Ord))
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byEdge)
	slices.SortFunc(b, byEdge)
	if !slices.Equal(a, b) {
		return fmt.Sprintf("%v vs %v", a, b)
	}
	return ""
}

// checkAgainstOracle compares the in-edges of every op of e with the
// brute-force derivation.
func checkAgainstOracle(e *Execution) string {
	for n, op := range e.Ops() {
		if d := sameEdgeMultiset(e.In(n), bruteInEdges(e, n)); d != "" {
			return fmt.Sprintf("op %d (%v): Exec vs Table I: %s", n, op, d)
		}
	}
	return ""
}

// Property: after every op of a random program with scoped fences, and
// again after undoing each op and issuing it anew, the in-edges Exec built
// through its pattern index are exactly those an index-free scan of Table I
// derives.
func TestExecMatchesTableIOracleProperty(t *testing.T) {
	const procs, locs = 3, 3
	prop := func(script []byte) bool {
		e := NewExecution()
		randProgram(e, nil, procs, locs)
		for i, o := range randOps(script, procs, locs, true) {
			o.issue(e)
			if d := checkAgainstOracle(e); d != "" {
				t.Logf("after op %d: %s", i, d)
				return false
			}
			e.Undo()
			o.issue(e)
			if d := checkAgainstOracle(e); d != "" {
				t.Logf("after undo and re-issue of op %d: %s", i, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// The oracle itself sees every scope: a location added mid-program, both
// fence kinds, and the cross-process ≺S rule.
func TestTableIOracleCoversScopes(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	e.Write(0, x, 1)
	e.Release(0, x)
	y := e.AddLoc("Y")
	e.Acquire(1, x)
	e.Read(1, y, 0)
	e.FenceLoc(1, y)
	e.Fence(1)
	e.Write(1, y, 2)
	e.Release(1, x)
	if d := checkAgainstOracle(e); d != "" {
		t.Fatal(d)
	}
	var sync, fromInit, fence int
	for _, ed := range e.Edges() {
		switch {
		case ed.Ord == OrdSync:
			sync++
		case e.Op(ed.From).IsInit:
			fromInit++
		case ed.Ord == OrdFence:
			fence++
		}
	}
	if sync == 0 || fromInit == 0 || fence == 0 {
		t.Fatalf("scenario misses a scope: %d sync, %d init, %d fence edges", sync, fromInit, fence)
	}
}
