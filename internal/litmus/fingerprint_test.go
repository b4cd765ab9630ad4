package litmus

import (
	"fmt"
	"slices"
	"testing"

	"pmc/internal/core"
)

// This file keeps the sort-based state key the explorer used before the
// incremental multiset fingerprint, as a partition oracle: it relabels
// every op and sorts every edge per query. The two keys hash different
// serializations, so their values differ, but they must split states into
// the same classes — that is what keeps every explored state count
// unchanged. The checks are exported for the external differential tests
// in oracle_test.go, which draw programs from the fuzz generator.

// sortFingerprintPerm is the sort-based canonical hash of s as relabeled
// by program automorphism p (nil = identity).
func (x *Explorer) sortFingerprintPerm(s *state, p *autPerm) fingerprint {
	ops := s.exec.Ops()
	numLocs := len(x.prog.Locs)
	// canon[id] is the interleaving-invariant label of op id: init ops
	// first, then each thread's ops in program order, placed by a
	// counting pass (in the permuted frame under p).
	canon := make([]int, len(ops))
	order := make([]int, len(ops))
	counts := make([]int, len(x.prog.Threads))
	numInit := 0
	for _, op := range ops {
		if op.Proc == core.InitProc {
			numInit++
		} else if p != nil {
			counts[p.threads[op.Proc]]++
		} else {
			counts[op.Proc]++
		}
	}
	off := numInit
	for t := range counts {
		c := counts[t]
		counts[t] = off
		off += c
	}
	initIdx := 0
	for _, op := range ops {
		var slot int
		if op.Proc == core.InitProc {
			if p != nil {
				slot = p.locs[op.Loc]
			} else {
				slot = initIdx
				initIdx++
			}
		} else if p != nil {
			t := p.threads[op.Proc]
			slot = counts[t]
			counts[t]++
		} else {
			slot = counts[op.Proc]
			counts[op.Proc]++
		}
		canon[op.ID] = slot
		order[slot] = op.ID
	}

	h := newFpHash()
	h = h.mixInt(len(ops))
	for _, id := range order {
		op := ops[id]
		h = h.mix(uint64(op.Kind))
		proc, loc := int(op.Proc), int(op.Loc)
		if p != nil {
			if op.Proc != core.InitProc {
				proc = p.threads[proc]
			}
			if loc >= 0 {
				loc = p.locs[loc]
			}
		}
		h = h.mixInt(proc)
		h = h.mixInt(loc)
		h = h.mix(uint64(op.Val))
		if op.IsInit {
			h = h.mix(1)
		} else {
			h = h.mix(0)
		}
	}
	var edges []uint64
	for id := range ops {
		for _, ed := range s.exec.Out(id) {
			edges = append(edges, uint64(canon[ed.From])<<34|uint64(canon[ed.To])<<4|uint64(ed.Ord))
		}
	}
	slices.Sort(edges)
	h = h.mixInt(len(edges))
	for _, e := range edges {
		h = h.mix(e)
	}
	for t := range s.pcs {
		if p != nil {
			h = h.mixInt(s.pcs[p.invT[t]])
		} else {
			h = h.mixInt(s.pcs[t])
		}
	}
	for l := range s.lockHolder {
		holder := s.lockHolder[l]
		if p != nil {
			holder = s.lockHolder[p.invL[l]]
			if holder >= 0 {
				holder = p.threads[holder]
			}
		}
		h = h.mixInt(holder)
	}
	for i := range s.lastRead {
		var id int
		if p != nil {
			t, l := i/numLocs, i%numLocs
			id = s.lastRead[p.invT[t]*numLocs+p.invL[l]]
		} else {
			id = s.lastRead[i]
		}
		if id < 0 {
			h = h.mixInt(-1)
		} else {
			h = h.mixInt(canon[id])
		}
	}
	for r := range s.regs {
		rv := s.regs[r]
		if p != nil {
			rv = s.regs[p.regFrom[r]]
		}
		if rv.Set {
			h = h.mix(1)
			h = h.mix(uint64(rv.Val))
		} else {
			h = h.mix(0)
		}
	}
	return fingerprint{hi: h.hi, lo: h.lo}
}

// sortCanonicalFP is engine.canonicalFP over sort-based keys.
func (x *Explorer) sortCanonicalFP(s *state) fingerprint {
	best := x.sortFingerprintPerm(s, nil)
	for _, p := range x.frames[1:] {
		if fp := x.sortFingerprintPerm(s, p); fp.less(best) {
			best = fp
		}
	}
	return best
}

// walkKeys prepares p (with symmetry frames when symmetry is set) and
// walks its states the way the memoized engine does, with do/undo on one
// live state, descending once per canonical key and stopping after
// maxStates distinct keys. check runs on the root and after every do and
// every undo.
func walkKeys(p Program, symmetry bool, maxStates int, check func(g *engine, s *state) error) error {
	x := NewExplorer(p)
	x.Symmetry = symmetry
	s, err := x.prepare()
	if err != nil {
		return err
	}
	g := &engine{x: x, memoize: true}
	seen := make(map[fingerprint]bool)
	var rec func() error
	rec = func() error {
		fp, _ := g.canonicalFP(s)
		if seen[fp] || len(seen) >= maxStates {
			return nil
		}
		seen[fp] = true
		ms, err := x.moves(s)
		if err != nil {
			return err
		}
		for _, m := range ms {
			u := x.do(s, m)
			err := check(g, s)
			if err == nil {
				err = rec()
			}
			x.undo(s, u)
			if err == nil {
				err = check(g, s)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(g, s); err != nil {
		return err
	}
	return rec()
}

// CheckIncrementalKeys walks p with symmetry frames and checks, at the
// root and after every do and every undo, that the labels and the
// accumulator of every frame that do/undo maintain equal a from-scratch
// fold of the execution (scratchFold).
func CheckIncrementalKeys(p Program, maxStates int) error {
	return walkKeys(p, true, maxStates, func(g *engine, s *state) error {
		labels, acc := g.x.scratchFold(s)
		if !slices.Equal(s.labels, labels) {
			return fmt.Errorf("%s at pcs %v: labels %v, from scratch %v", p.Name, s.pcs, s.labels, labels)
		}
		if cur := s.acc[len(s.acc)-len(acc):]; !slices.Equal(cur, acc) {
			return fmt.Errorf("%s at pcs %v: accumulators %v, from scratch %v", p.Name, s.pcs, cur, acc)
		}
		return nil
	})
}

// CheckSortKeyPartition walks p in memo (or, with symmetry, orbit) mode
// and checks that the incremental key and the sort-based key partition
// the visited states identically: old→new and new→old are both functions.
func CheckSortKeyPartition(p Program, symmetry bool, maxStates int) error {
	oldToNew := make(map[fingerprint]fingerprint)
	newToOld := make(map[fingerprint]fingerprint)
	return walkKeys(p, symmetry, maxStates, func(g *engine, s *state) error {
		nk, _ := g.canonicalFP(s)
		sk := g.x.sortCanonicalFP(s)
		if prev, seen := newToOld[nk]; seen && prev != sk {
			return fmt.Errorf("%s at pcs %v: one incremental key, two sort keys", p.Name, s.pcs)
		}
		if prev, seen := oldToNew[sk]; seen && prev != nk {
			return fmt.Errorf("%s at pcs %v: one sort key, two incremental keys", p.Name, s.pcs)
		}
		newToOld[nk], oldToNew[sk] = sk, nk
		return nil
	})
}

// TestStateKeyAllocs pins the allocation budget of the hot path: a key
// query (identity and orbit-canonical) allocates nothing, and a do+undo
// pair allocates at most the *Op that Exec issues.
func TestStateKeyAllocs(t *testing.T) {
	for _, p := range []Program{StressIndependent(), IRIWSym3()} {
		for _, symmetry := range []bool{false, true} {
			g, s := midState(t, p, symmetry)
			if n := testing.AllocsPerRun(100, func() { g.canonicalFP(s) }); n != 0 {
				t.Errorf("%s symmetry=%v: key query allocates %v times, want 0", p.Name, symmetry, n)
			}
			ms, err := g.x.moves(s)
			if err != nil || len(ms) == 0 {
				t.Fatalf("%s: no move (%v)", p.Name, err)
			}
			if n := testing.AllocsPerRun(100, func() { g.x.undo(s, g.x.do(s, ms[0])) }); n > 1 {
				t.Errorf("%s symmetry=%v: do+undo allocates %v times, want at most 1", p.Name, symmetry, n)
			}
		}
	}
}
