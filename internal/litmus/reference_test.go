package litmus

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pmc/internal/core"
)

// This file keeps the clone-per-successor explorer as a test oracle: every
// step copies the state (execution included) once per successor and
// recurses into the copy, so no move is ever undone. It shares the memo
// table, budget and symmetry machinery of the product engine and differs
// only in how it branches and in how it keys states, which is what the
// differential tests compare (oracle_test.go).
//
// The oracle keys every state by folding its execution from scratch
// (scratchFold), never through the accumulators do/undo maintain: refStep
// issues into clones without going through do, so the incremental fields
// a clone carries are stale.
//
// The oracle must not share the incremental path: it would agree with its bugs.

// ReferenceRun explores like Run, branching by cloning instead of do/undo.
func (x *Explorer) ReferenceRun() (*Result, error) {
	s, err := x.prepare()
	if err != nil {
		return nil, err
	}
	workers := x.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := refEngine{&engine{x: x, memoize: x.Memoize, maxStates: int64(x.MaxStates)}}
	if x.symmetric() {
		g.claimed = make(map[fingerprint]bool)
	}
	var res *subResult
	if workers == 1 {
		res, err = g.explore(s)
	} else {
		res, err = g.runParallel(s, workers)
	}
	if err != nil {
		return nil, err
	}
	if g.budgetHit.Load() {
		return nil, fmt.Errorf("litmus %s: %w (budget %d, work remained)",
			x.prog.Name, ErrBudget, x.MaxStates)
	}
	out := &Result{Outcomes: res.outcomes, Stuck: res.stuck, States: int(g.states.Load())}
	if out.Outcomes == nil {
		out.Outcomes = make(map[string]int)
	}
	return out, nil
}

type refEngine struct{ *engine }

// scratchFold labels s's operations and sums the tokens of every
// operation and edge of its execution, in every frame, using only the
// execution itself: issue order is program order within a thread, so
// counting each thread's ops in issue order recovers the labels.
func (x *Explorer) scratchFold(s *state) ([]opLabel, []fpAcc) {
	ops := s.exec.Ops()
	labels := make([]opLabel, len(ops))
	nops := make([]int32, len(x.prog.Threads))
	for id, op := range ops {
		if op.IsInit {
			labels[id] = opLabel{int32(core.InitProc), int32(op.Loc)}
		} else {
			labels[id] = opLabel{int32(op.Proc), nops[op.Proc]}
			nops[op.Proc]++
		}
	}
	acc := make([]fpAcc, len(x.frames))
	for k, p := range x.frames {
		for id, op := range ops {
			acc[k].add(p.opToken(labels[id], op))
			for _, ed := range s.exec.In(id) {
				acc[k].add(edgeToken(p.label(labels[ed.From]), p.label(labels[ed.To]), ed.Ord))
			}
		}
	}
	return labels, acc
}

// fingerprint is the from-scratch identity key of s.
func (g refEngine) fingerprint(s *state) fingerprint {
	labels, acc := g.x.scratchFold(s)
	return g.x.key(s, acc[0], labels, g.x.frames[0])
}

// canonicalFP is engine.canonicalFP over from-scratch keys.
func (g refEngine) canonicalFP(s *state) (fingerprint, *autPerm) {
	labels, acc := g.x.scratchFold(s)
	best := g.x.key(s, acc[0], labels, g.x.frames[0])
	var bestPerm *autPerm
	for k := 1; k < len(g.x.frames); k++ {
		if fp := g.x.key(s, acc[k], labels, g.x.frames[k]); fp.less(best) {
			best, bestPerm = fp, g.x.frames[k]
		}
	}
	return best, bestPerm
}

// claimFrontier is engine.claimFrontier over from-scratch keys.
func (g refEngine) claimFrontier(s *state) bool {
	if !g.x.symmetric() {
		return g.claimState()
	}
	fp, _ := g.canonicalFP(s)
	return g.claimOrbit(fp)
}

func (g refEngine) explore(s *state) (*subResult, error) {
	if !g.memoize {
		return g.compute(s)
	}
	if g.x.symmetric() {
		return g.exploreSym(s)
	}
	fp := g.fingerprint(s)
	e := &cacheEntry{done: make(chan struct{})}
	if prev, loaded := g.cache.LoadOrStore(fp, e); loaded {
		pe := prev.(*cacheEntry)
		<-pe.done
		return pe.res, pe.err
	}
	e.res, e.err = g.compute(s)
	close(e.done)
	return e.res, e.err
}

func (g refEngine) exploreSym(s *state) (*subResult, error) {
	fp, perm := g.canonicalFP(s)
	e := &cacheEntry{done: make(chan struct{})}
	if prev, loaded := g.cache.LoadOrStore(fp, e); loaded {
		return g.translated(prev.(*cacheEntry), perm)
	}
	res, err := g.compute(s)
	if err != nil {
		e.err = err
	} else if perm != nil {
		e.res = g.x.translateSub(res, perm.regTo)
	} else {
		e.res = res
	}
	close(e.done)
	return res, err
}

func (g refEngine) expandState(s *state) (outcome string, done bool, succs []*state, err error) {
	allDone := true
	for t := range g.x.prog.Threads {
		if s.pcs[t] < len(g.x.prog.Threads[t]) {
			allDone = false
			break
		}
	}
	if allDone {
		return g.x.canonical(s.regs), true, nil, nil
	}
	for t := range g.x.prog.Threads {
		ns, err := g.x.refStep(s, t)
		if err != nil {
			return "", false, nil, err
		}
		succs = append(succs, ns...)
	}
	return "", false, succs, nil
}

func (g refEngine) compute(s *state) (*subResult, error) {
	if !g.claimState() {
		return emptySub, nil
	}
	outcome, done, succs, err := g.expandState(s)
	if err != nil {
		return nil, err
	}
	if done {
		return &subResult{outcomes: map[string]int{outcome: 1}}, nil
	}
	if len(succs) == 0 {
		return &subResult{stuck: 1}, nil
	}
	res := newSubResult()
	for _, n := range succs {
		sub, err := g.explore(n)
		if err != nil {
			return nil, err
		}
		res.add(sub, 1)
	}
	return res, nil
}

func (g refEngine) runParallel(root *state, workers int) (*subResult, error) {
	res := newSubResult()
	frontier := []frontierEntry{{s: root, mult: 1}}
	for len(frontier) > 0 && len(frontier) < workers*4 {
		var next []frontierEntry
		nextIdx := make(map[fingerprint]int)
		for _, en := range frontier {
			if !g.claimFrontier(en.s) {
				return res, nil
			}
			outcome, done, succs, err := g.expandState(en.s)
			if err != nil {
				return nil, err
			}
			if done {
				res.outcomes[outcome] += en.mult
				continue
			}
			if len(succs) == 0 {
				res.stuck += en.mult
				continue
			}
			for _, n := range succs {
				if g.memoize {
					fp := g.fingerprint(n)
					if i, ok := nextIdx[fp]; ok {
						next[i].mult += en.mult
						continue
					}
					nextIdx[fp] = len(next)
				}
				next = append(next, frontierEntry{s: n, mult: en.mult})
			}
		}
		frontier = next
	}
	var (
		mu       sync.Mutex
		firstErr error
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(frontier); i = int(next.Add(1)) - 1 {
				sub, err := g.explore(frontier[i].s)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					res.add(sub, frontier[i].mult)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// refStep returns the successor states of s for thread t, each a fresh
// clone, or nil if t is blocked or finished.
func (x *Explorer) refStep(s *state, t int) ([]*state, error) {
	th := x.prog.Threads[t]
	if s.pcs[t] >= len(th) {
		return nil, nil
	}
	in := th[s.pcs[t]]
	p := core.ProcID(t)
	switch in.Kind {
	case IWrite:
		n := s.clone()
		n.exec.Write(p, x.locIdx[in.Loc], in.Val)
		n.pcs[t]++
		return []*state{n}, nil
	case IFence:
		n := s.clone()
		if in.Loc != "" {
			n.exec.FenceLoc(p, x.locIdx[in.Loc])
		} else {
			n.exec.Fence(p)
		}
		n.pcs[t]++
		return []*state{n}, nil
	case IFlush:
		n := s.clone()
		n.pcs[t]++
		return []*state{n}, nil
	case IAcquire:
		loc := x.locIdx[in.Loc]
		if s.lockHolder[loc] != -1 {
			return nil, nil
		}
		n := s.clone()
		n.exec.Acquire(p, loc)
		n.lockHolder[loc] = t
		n.pcs[t]++
		return []*state{n}, nil
	case IRelease:
		loc := x.locIdx[in.Loc]
		if s.lockHolder[loc] != t {
			return nil, fmt.Errorf("litmus %s: thread %d releases %s without holding it",
				x.prog.Name, t, in.Loc)
		}
		n := s.clone()
		n.exec.Release(p, loc)
		n.lockHolder[loc] = -1
		n.pcs[t]++
		return []*state{n}, nil
	case IRead, IAwaitEq:
		loc := x.locIdx[in.Loc]
		var succs []*state
		for _, b := range x.readCandidates(s, t, loc) {
			val := s.exec.Op(b).Val
			if s.exec.Op(b).IsInit {
				val = 0
			}
			if in.Kind == IAwaitEq && val != in.Val {
				continue
			}
			n := s.clone()
			n.exec.Read(p, loc, val)
			n.lastRead[t*len(x.prog.Locs)+int(loc)] = b
			if in.Reg != "" {
				n.regs[x.regIdx[in.Reg]] = regVal{Val: val, Set: true}
			}
			n.pcs[t]++
			succs = append(succs, n)
		}
		return succs, nil
	}
	return nil, fmt.Errorf("litmus %s: unknown instruction kind %d", x.prog.Name, in.Kind)
}
