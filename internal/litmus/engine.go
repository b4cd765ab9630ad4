package litmus

import (
	"sync"
	"sync/atomic"
)

// This file is the exploration engine behind Explorer.Run. Every mode
// walks one live state in place: it applies a move (do), recurses, then
// takes the move back (undo), so a step costs one model operation issued
// and retracted instead of a copy of the execution. A state is copied
// (state.clone) only to materialize the roots of parallel subtrees, and
// each worker then walks its own root in place. Three modes share the
// recursive core:
//
//   - sequential tree enumeration (Workers=1, Memoize=false): the
//     reference semantics — every interleaving/read-choice path is walked
//     individually;
//   - memoized counting DFS (Memoize=true): states are keyed by their
//     canonical fingerprint (fingerprint.go); the subtree below a state is
//     explored once and its outcome-count map reused for every converging
//     interleaving. Because the map counts completions *from* the state,
//     summing it once per incoming path reproduces tree counts exactly;
//   - worker-pool frontier mode (Workers>1): the root is expanded
//     breadth-first into a frontier of independent subtrees which a pool of
//     workers explores concurrently. Merging is pure addition of counts —
//     commutative and associative — so the result is bit-identical
//     run-to-run and identical to the sequential modes regardless of
//     scheduling. A shared memo table additionally dedupes states across
//     subtrees (two frontier subtrees can converge).
//
// Determinism of Result.States: without memoization every tree node is
// counted exactly once (frontier interiors during expansion, the rest by
// the recursive walk). With memoization the count is the number of
// distinct canonical states, claimed once via the memo table; concurrent
// workers reaching an in-flight state block on its entry instead of
// recomputing, so the claim — and the count — happens once per state.
// Since one exploration step always advances exactly one pc, a state's
// depth (Σ pcs) is fixed, so frontier interiors can never reappear inside
// a subtree and the two counting sites never overlap.

// subResult is the outcome of exploring one subtree: completions and stuck
// leaves reachable from its root, counted per path.
type subResult struct {
	outcomes map[string]int
	stuck    int
}

func newSubResult() *subResult {
	return &subResult{outcomes: make(map[string]int)}
}

// add merges o into r, scaling by mult (the number of distinct paths that
// led to o's root).
func (r *subResult) add(o *subResult, mult int) {
	for k, v := range o.outcomes {
		r.outcomes[k] += v * mult
	}
	r.stuck += o.stuck * mult
}

// emptySub is the shared result of an aborted subtree. Never mutated.
var emptySub = &subResult{}

// cacheEntry is one memo-table slot. The goroutine that wins the
// LoadOrStore computes res/err and closes done; others wait. The state
// graph is a DAG (each step advances one pc), so waits always point
// "downward" and cannot cycle.
type cacheEntry struct {
	done chan struct{}
	res  *subResult
	err  error
}

// engine holds the mutable exploration context for one Run.
type engine struct {
	x         *Explorer
	memoize   bool
	maxStates int64
	states    atomic.Int64
	budgetHit atomic.Bool
	// cache is keyed by fingerprint, or under symmetry reduction (the
	// Explorer has automorphism frames) by orbit-canonical fingerprint
	// with results stored in the canonical register frame (symmetry.go).
	cache sync.Map // fingerprint -> *cacheEntry
	// claimed dedups expansion-phase state claims by canonical
	// fingerprint in symmetry mode, so Result.States counts orbits
	// identically for every worker count. Only touched from the
	// single-threaded frontier-expansion loop.
	claimed map[fingerprint]bool
}

// explore returns the subResult for s, consulting the memo table when
// enabled. Results from the table are shared and must not be mutated.
func (g *engine) explore(s *state) (*subResult, error) {
	if !g.memoize {
		return g.compute(s)
	}
	if g.x.symmetric() {
		return g.exploreSym(s)
	}
	fp := g.x.fingerprint(s, 0)
	// Fast path: cache hits dominate once memoization kicks in, so probe
	// with a plain Load before allocating an entry for LoadOrStore.
	if prev, ok := g.cache.Load(fp); ok {
		pe := prev.(*cacheEntry)
		<-pe.done
		return pe.res, pe.err
	}
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

// canonicalFP returns the orbit-canonical fingerprint of s — the minimum
// of its fingerprints over the identity and every automorphism frame —
// plus the permutation achieving it (nil when the identity frame wins).
func (g *engine) canonicalFP(s *state) (fingerprint, *autPerm) {
	best := g.x.fingerprint(s, 0)
	var bestPerm *autPerm
	for k := 1; k < len(g.x.frames); k++ {
		if fp := g.x.fingerprint(s, k); fp.less(best) {
			best, bestPerm = fp, g.x.frames[k]
		}
	}
	return best, bestPerm
}

// exploreSym is explore under symmetry reduction: memo entries are keyed
// by orbit and stored in the canonical register frame — the frame of the
// achieving permutation — so a hit from any orbit member translates the
// shared outcome map into its own frame. Each stored permutation is
// individually a program automorphism, which is all translation needs;
// the set need not be closed under composition.
func (g *engine) exploreSym(s *state) (*subResult, error) {
	fp, perm := g.canonicalFP(s)
	if prev, ok := g.cache.Load(fp); ok {
		return g.translated(prev.(*cacheEntry), perm)
	}
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

// translated waits for a memo entry and maps its canonical-frame result
// back into the frame of the state that hit it.
func (g *engine) translated(pe *cacheEntry, perm *autPerm) (*subResult, error) {
	<-pe.done
	if pe.err != nil {
		return nil, pe.err
	}
	if perm == nil {
		return pe.res, nil
	}
	return g.x.translateSub(pe.res, perm.regFrom), nil
}

// claimState takes one slot of the state budget, flipping budgetHit when
// work remains past it. Exactly one claim happens per counted state.
func (g *engine) claimState() bool {
	if g.budgetHit.Load() {
		return false
	}
	if n := g.states.Add(1); n > g.maxStates {
		g.budgetHit.Store(true)
		return false
	}
	return true
}

// expandState classifies one claimed state: a completed execution (done,
// with its canonical outcome), or its enabled moves (empty = stuck). Both
// the recursive walk and the frontier expansion go through here so
// terminal-state and stepping semantics live in one place.
func (g *engine) expandState(s *state) (outcome string, done bool, ms []move, err error) {
	for t, th := range g.x.prog.Threads {
		if s.pcs[t] < len(th) {
			ms, err = g.x.moves(s)
			return "", false, ms, err
		}
	}
	return g.x.canonical(s.regs), true, nil, nil
}

// compute walks one state in place: claims a slot of the state budget,
// emits the outcome for complete states, and otherwise does each move,
// explores the result and undoes the move, leaving s as it found it.
func (g *engine) compute(s *state) (*subResult, error) {
	if !g.claimState() {
		return emptySub, nil
	}
	outcome, done, ms, err := g.expandState(s)
	if err != nil {
		return nil, err
	}
	if done {
		return &subResult{outcomes: map[string]int{outcome: 1}}, nil
	}
	if len(ms) == 0 {
		return &subResult{stuck: 1}, nil
	}
	res := newSubResult()
	for _, m := range ms {
		u := g.x.do(s, m)
		sub, err := g.explore(s)
		g.x.undo(s, u)
		if err != nil {
			return nil, err
		}
		res.add(sub, 1)
	}
	return res, nil
}

// claimFrontier claims the expansion-phase budget slot for a frontier
// state. In symmetry mode a slot is taken once per orbit — matching the
// sequential memoized count — and later orientations of an already
// claimed orbit still expand (their successors carry distinct register
// frames) but cost nothing. Frontier expansion happens before any
// worker runs and every exploration step advances exactly one pc, so
// expansion-phase orbits (shallower than the frontier) can never recur
// inside a worker subtree: the claimed set and the memo table count
// disjoint orbits. Returns false when the budget is exhausted.
func (g *engine) claimFrontier(s *state) bool {
	if !g.x.symmetric() {
		return g.claimState()
	}
	fp, _ := g.canonicalFP(s)
	return g.claimOrbit(fp)
}

// claimOrbit is claimFrontier for the orbit with canonical fingerprint fp.
func (g *engine) claimOrbit(fp fingerprint) bool {
	if g.claimed[fp] {
		return true
	}
	if !g.claimState() {
		return false
	}
	g.claimed[fp] = true
	return true
}

// frontierEntry is one root of a parallel subtree; mult is the number of
// distinct prefix paths that reached it (always 1 without memoization,
// where duplicates stay separate entries).
type frontierEntry struct {
	s    *state
	mult int
}

// runParallel expands the root breadth-first until the frontier offers
// enough independent work for the pool, folding completed and stuck
// prefixes into the result as it goes, then fans the frontier out to
// workers goroutines. Expansion materializes every successor (clone, then
// do), since the frontier holds them all at once; each worker then walks
// its own frontier states in place. With memoization the frontier is
// deduplicated by fingerprint, carrying path multiplicities, which keeps
// the distinct-state count identical to a sequential memoized run.
func (g *engine) runParallel(root *state, workers int) (*subResult, error) {
	res := newSubResult()
	frontier := []frontierEntry{{s: root, mult: 1}}
	target := workers * 4
	for len(frontier) > 0 && len(frontier) < target {
		var next []frontierEntry
		var nextIdx map[fingerprint]int
		if g.memoize {
			nextIdx = make(map[fingerprint]int)
		}
		for _, en := range frontier {
			if !g.claimFrontier(en.s) {
				return res, nil
			}
			outcome, done, ms, err := g.expandState(en.s)
			if err != nil {
				return nil, err
			}
			if done {
				res.outcomes[outcome] += en.mult
				continue
			}
			if len(ms) == 0 {
				res.stuck += en.mult
				continue
			}
			for _, m := range ms {
				n := en.s.clone()
				g.x.do(n, m)
				if g.memoize {
					fp := g.x.fingerprint(n, 0)
					if i, ok := nextIdx[fp]; ok {
						next[i].mult += en.mult
						continue
					}
					nextIdx[fp] = len(next)
					next = append(next, frontierEntry{s: n, mult: en.mult})
				} else {
					next = append(next, frontierEntry{s: n, mult: 1})
				}
			}
		}
		frontier = next
	}
	if len(frontier) == 0 {
		return res, nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		nextIdx  atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= len(frontier) {
					return
				}
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
