package core

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// diffExecutions returns "" when a and b are indistinguishable to every
// query the explorer makes: the same ops, the same in- and out-edges of
// every op, and the same LastWritesAt/ReadableAt for every (proc, loc).
func diffExecutions(a, b *Execution, procs int) string {
	if len(a.Ops()) != len(b.Ops()) {
		return fmt.Sprintf("%d ops vs %d", len(a.Ops()), len(b.Ops()))
	}
	for i, op := range a.Ops() {
		if *op != *b.Op(i) {
			return fmt.Sprintf("op %d: %v vs %v", i, op, b.Op(i))
		}
		if !slices.Equal(a.In(i), b.In(i)) {
			return fmt.Sprintf("in-edges of op %d: %v vs %v", i, a.In(i), b.In(i))
		}
		if !slices.Equal(a.Out(i), b.Out(i)) {
			return fmt.Sprintf("out-edges of op %d: %v vs %v", i, a.Out(i), b.Out(i))
		}
	}
	for p := ProcID(0); int(p) < procs; p++ {
		for v := Loc(0); int(v) < a.NumLocs(); v++ {
			if x, y := a.LastWritesAt(p, v), b.LastWritesAt(p, v); !slices.Equal(x, y) {
				return fmt.Sprintf("LastWritesAt(p%d, %d): %v vs %v", p, v, x, y)
			}
			if x, y := a.ReadableAt(p, v), b.ReadableAt(p, v); !slices.Equal(x, y) {
				return fmt.Sprintf("ReadableAt(p%d, %d): %v vs %v", p, v, x, y)
			}
		}
	}
	return ""
}

// Property: at every point of a random program, Exec followed by Undo
// leaves an execution indistinguishable from a Clone taken before the
// Exec, for every kind of operation the next step could issue.
func TestUndoRestoresCloneProperty(t *testing.T) {
	const procs, locs = 3, 2
	prop := func(script []byte) bool {
		e := NewExecution()
		randProgram(e, nil, procs, locs)
		ops := randOps(script, procs, locs, true)
		for i, o := range ops {
			before := e.Clone()
			o.issue(e)
			e.Undo()
			if d := diffExecutions(e, before, procs); d != "" {
				t.Logf("after undoing op %d (%v): %s", i, o, d)
				return false
			}
			o.issue(e)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: undoing a whole program one op at a time passes back through
// every prefix, and re-issuing it — into the capacity Undo kept — rebuilds
// the same execution as issuing it fresh.
func TestUndoUnwindsProgramProperty(t *testing.T) {
	const procs, locs = 3, 2
	prop := func(script []byte) bool {
		ops := randOps(script, procs, locs, true)
		prefix := func(n int) *Execution {
			e := NewExecution()
			randProgram(e, nil, procs, locs)
			for _, o := range ops[:n] {
				o.issue(e)
			}
			return e
		}
		e := prefix(len(ops))
		for n := len(ops) - 1; n >= 0; n-- {
			e.Undo()
			if d := diffExecutions(e, prefix(n), procs); d != "" {
				t.Logf("unwound to %d ops: %s", n, d)
				return false
			}
		}
		for _, o := range ops {
			o.issue(e)
		}
		if d := diffExecutions(e, prefix(len(ops)), procs); d != "" {
			t.Logf("re-issued: %s", d)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// Undo refuses to take back an initial operation, and anything issued
// before a Clone on either side of it: the clone shares that prefix.
func TestUndoPanics(t *testing.T) {
	e := NewExecution()
	x := e.AddLoc("X")
	mustPanic(t, "Undo of an initial op", e.Undo)

	e.Write(0, x, 1)
	c := e.Clone()
	mustPanic(t, "Undo below the clone's floor", c.Undo)
	mustPanic(t, "Undo below the original's floor", e.Undo)

	// Above the floor both sides undo what they issued themselves.
	c.Write(1, x, 2)
	c.Undo()
	e.Read(1, x, 1)
	e.Undo()
	if d := diffExecutions(e, c, 2); d != "" {
		t.Errorf("clone and original diverged: %s", d)
	}
}

// A warmed execution issues and undoes an operation of any kind with one
// allocation: the *Op itself.
func TestExecUndoAllocs(t *testing.T) {
	e := NewExecution()
	x, y := e.AddLoc("X"), e.AddLoc("Y")
	for p := ProcID(0); p < 2; p++ {
		e.Acquire(p, x)
		e.Write(p, x, Value(p))
		e.Read(p, y, 0)
		e.FenceLoc(p, y)
		e.Fence(p)
		e.Release(p, x)
	}
	for _, o := range []randOp{
		{k: KWrite, p: 0, v: x, val: 7},
		{k: KRead, p: 1, v: x},
		{k: KAcquire, p: 1, v: y},
		{k: KRelease, p: 0, v: x},
		{k: KFence, p: 0, v: NoLoc},
		{k: KFence, p: 1, v: y},
	} {
		o.issue(e) // warm: grow the slot and index capacity once
		e.Undo()
		if n := testing.AllocsPerRun(100, func() { o.issue(e); e.Undo() }); n > 1 {
			t.Errorf("%v then Undo: %v allocations, want at most 1", o.k, n)
		}
	}
}
