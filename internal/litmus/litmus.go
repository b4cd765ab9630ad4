// Package litmus exhaustively explores the outcomes of small annotated
// multi-threaded programs under the PMC memory model (internal/core). It
// enumerates every thread interleaving and, at each read, every value the
// model permits (Definition 12), collecting the set of observable final
// outcomes.
//
// The explorer enforces what the model assumes but does not itself provide:
//   - mutual exclusion: an acquire is enabled only while no other thread
//     holds the location's lock;
//   - slow-memory read monotonicity: successive reads of one location by
//     one thread never step backwards through the write order they have
//     already observed (the second clause of Definition 12, applied in
//     issue order, which is Slow Consistency's guarantee);
//   - progress for polls: an await is enabled once the awaited value is
//     readable, modelling "the flag is eventually observed" without
//     enumerating unboundedly many failed poll iterations.
//
// This is the tool that demonstrates Fig. 1 (the unsynchronized program has
// a stale outcome), Fig. 5/6 (the annotated program has exactly one
// outcome), and the SC-simulation claim for data-race-free programs.
package litmus

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pmc/internal/core"
)

// ErrBudget is wrapped by Run when the state budget is exhausted with work
// remaining; match it with errors.Is (the fuzzer skips such programs).
var ErrBudget = errors.New("state budget exhausted")

// InstrKind enumerates litmus instructions. They correspond to the PMC
// annotations of Section V-A: reads/writes plus entry_x/exit_x (acquire/
// release), fence, and an await modelling a poll loop. Flush is accepted
// for program fidelity but is a no-op at model level (it is a liveness
// hint, not an ordering, Section IV-D).
type InstrKind uint8

const (
	// IRead reads Loc into register Reg.
	IRead InstrKind = iota
	// IWrite writes the constant Val to Loc.
	IWrite
	// IAcquire is entry_x(Loc).
	IAcquire
	// IRelease is exit_x(Loc).
	IRelease
	// IFence is fence().
	IFence
	// IFlush is flush(Loc): no model ordering, explorer no-op.
	IFlush
	// IAwaitEq blocks until a read of Loc can return Val, then performs
	// that read into Reg (if Reg is non-empty).
	IAwaitEq
	// IReadBlock is a ranged read of Loc's whole width (annotation API
	// v2): word k lands in register WordReg(Reg, k). Lowered to per-word
	// reads before exploration; executed as one Ctx.ReadBlock by the
	// conformance harness.
	IReadBlock
	// IWriteBlock is a ranged write of Loc's whole width: word k receives
	// Val+k (distinct per-word values, so partial or torn transfers are
	// observable).
	IWriteBlock
)

// Instr is one litmus instruction.
type Instr struct {
	Kind InstrKind
	Loc  string
	Val  core.Value
	Reg  string
}

// Convenience constructors.

// Read returns an instruction reading loc into reg.
func Read(loc, reg string) Instr { return Instr{Kind: IRead, Loc: loc, Reg: reg} }

// Write returns an instruction writing val to loc.
func Write(loc string, val core.Value) Instr { return Instr{Kind: IWrite, Loc: loc, Val: val} }

// Acquire returns entry_x(loc).
func Acquire(loc string) Instr { return Instr{Kind: IAcquire, Loc: loc} }

// Release returns exit_x(loc).
func Release(loc string) Instr { return Instr{Kind: IRelease, Loc: loc} }

// Fence returns fence().
func Fence() Instr { return Instr{Kind: IFence} }

// FenceOn returns a location-scoped fence (the Section IV-D extension):
// it orders only operations on loc.
func FenceOn(loc string) Instr { return Instr{Kind: IFence, Loc: loc} }

// Flush returns flush(loc).
func Flush(loc string) Instr { return Instr{Kind: IFlush, Loc: loc} }

// AwaitEq returns a poll loop "while(loc != val);" that records the
// successful read in reg (reg may be empty).
func AwaitEq(loc string, val core.Value, reg string) Instr {
	return Instr{Kind: IAwaitEq, Loc: loc, Val: val, Reg: reg}
}

// ReadBlock returns a ranged read of loc's whole width; word k is
// observed in WordReg(reg, k) (reg may be empty for an unobserved read).
func ReadBlock(loc, reg string) Instr { return Instr{Kind: IReadBlock, Loc: loc, Reg: reg} }

// WriteBlock returns a ranged write of loc's whole width; word k receives
// val+k.
func WriteBlock(loc string, val core.Value) Instr {
	return Instr{Kind: IWriteBlock, Loc: loc, Val: val}
}

// Thread is a sequence of instructions executed by one process.
type Thread []Instr

// Program is a complete litmus test.
type Program struct {
	Name    string
	Locs    []string
	Threads []Thread
	// Widths gives the word width of multi-word locations (absent or
	// ≤ 1 means one word). Wide locations model multi-word shared
	// objects: block instructions cover the whole width, scope
	// annotations protect every word, and the explorer lowers both to
	// per-word model operations (LowerWide).
	Widths map[string]int
	// Placement routes locations to named runtime backends when the
	// program executes under conform's mixed mode (absent = the run's
	// default backend). The model is placement-blind — every conforming
	// backend implements the same memory model — so exploration ignores
	// it; only execution and the canonical fingerprint consume it.
	Placement map[string]string
}

// PlacedOn returns the backend name loc is placed on ("" = default).
func (p Program) PlacedOn(loc string) string { return p.Placement[loc] }

// WidthOf returns loc's width in words (at least 1).
func (p Program) WidthOf(loc string) int {
	if w := p.Widths[loc]; w > 1 {
		return w
	}
	return 1
}

// WordLoc names word k of a wide location at model level: word 0 keeps
// the location's own name, word k is "loc@k".
func WordLoc(loc string, k int) string {
	if k == 0 {
		return loc
	}
	return fmt.Sprintf("%s@%d", loc, k)
}

// WordReg names the register observing word k of a block read: word 0
// keeps the base register name, word k is "reg@k".
func WordReg(reg string, k int) string {
	if k == 0 || reg == "" {
		return reg
	}
	return fmt.Sprintf("%s@%d", reg, k)
}

// HasWide reports whether p uses multi-word locations or block
// instructions (i.e. whether LowerWide would rewrite it).
func (p Program) HasWide() bool {
	for _, w := range p.Widths {
		if w > 1 {
			return true
		}
	}
	for _, th := range p.Threads {
		for _, in := range th {
			if in.Kind == IReadBlock || in.Kind == IWriteBlock {
				return true
			}
		}
	}
	return false
}

// LowerWide rewrites a program with wide locations and block instructions
// into the pure word-granular form the exploration engine and the formal
// model speak:
//
//   - a wide location X of width w becomes word locations X, X@1 … X@w-1;
//   - entry_x/exit_x (acquire/release) of X cover every word — the
//     runtime's one object lock protects the whole object, which the
//     model expresses as one acquire/release per word location;
//   - location-scoped fences and flushes of X expand per word;
//   - WriteBlock(X, v) becomes per-word writes of v+k, ReadBlock(X, r)
//     per-word reads into r, r@1, …;
//   - word-granular reads/writes/awaits of X touch word 0 (the location's
//     own name).
//
// Bare (unscoped) accesses stay bare: the runtime's entry_ro wrapper takes
// the object lock for multi-word objects, so the execution is strictly
// more ordered than this model program — outcomes remain a subset of the
// model's, which is the sound direction for conformance checking.
//
// Programs without wide features are returned unchanged (same backing
// arrays), so existing explorations are bit-for-bit unaffected.
func LowerWide(p Program) Program {
	if !p.HasWide() {
		return p
	}
	out := Program{Name: p.Name, Threads: make([]Thread, len(p.Threads)), Placement: p.Placement}
	for _, loc := range p.Locs {
		for k := 0; k < p.WidthOf(loc); k++ {
			out.Locs = append(out.Locs, WordLoc(loc, k))
		}
	}
	for ti, th := range p.Threads {
		var eff Thread
		for _, in := range th {
			w := p.WidthOf(in.Loc)
			switch in.Kind {
			case IAcquire:
				for k := 0; k < w; k++ {
					eff = append(eff, Acquire(WordLoc(in.Loc, k)))
				}
			case IRelease:
				for k := 0; k < w; k++ {
					eff = append(eff, Release(WordLoc(in.Loc, k)))
				}
			case IFence:
				if in.Loc == "" {
					eff = append(eff, in)
					break
				}
				for k := 0; k < w; k++ {
					eff = append(eff, FenceOn(WordLoc(in.Loc, k)))
				}
			case IFlush:
				for k := 0; k < w; k++ {
					eff = append(eff, Flush(WordLoc(in.Loc, k)))
				}
			case IReadBlock:
				for k := 0; k < w; k++ {
					eff = append(eff, Read(WordLoc(in.Loc, k), WordReg(in.Reg, k)))
				}
			case IWriteBlock:
				for k := 0; k < w; k++ {
					eff = append(eff, Write(WordLoc(in.Loc, k), in.Val+core.Value(k)))
				}
			default:
				// Word-granular reads, writes and awaits touch word 0,
				// whose model location keeps the object's name.
				eff = append(eff, in)
			}
		}
		out.Threads[ti] = eff
	}
	return out
}

// Result summarizes an exploration.
type Result struct {
	// Outcomes maps a canonical register assignment ("r1=42 r2=0") to
	// the number of distinct executions producing it. The count is the
	// number of complete interleaving/read-choice paths, identical
	// across sequential, memoized and parallel exploration modes.
	Outcomes map[string]int
	// Stuck counts executions that reached a state with no enabled
	// instruction before all threads finished (deadlock/livelock).
	Stuck int
	// States is the number of explored states — a cost metric, not part
	// of the semantics. Without memoization it counts exploration-tree
	// nodes; with memoization it counts distinct canonical states, which
	// is typically far smaller. Within one mode it is deterministic
	// run-to-run, including under parallel exploration.
	States int
}

// HasOutcome reports whether the canonical outcome string was observed.
func (r *Result) HasOutcome(s string) bool { return r.Outcomes[s] > 0 }

// OutcomeList returns the sorted outcome strings.
func (r *Result) OutcomeList() []string {
	var out []string
	for o := range r.Outcomes {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// String renders the result compactly.
func (r *Result) String() string {
	var b strings.Builder
	for _, o := range r.OutcomeList() {
		fmt.Fprintf(&b, "%s (%d executions)\n", o, r.Outcomes[o])
	}
	if r.Stuck > 0 {
		fmt.Fprintf(&b, "stuck: %d\n", r.Stuck)
	}
	return b.String()
}

// state is one node of the exploration tree. The engine walks one live
// state per goroutine, applying a move, recursing and undoing the move
// (do/undo); clone materializes a state only for the roots of parallel
// subtrees. The layout is flat — one backing array per field, no nested
// slices or maps — so that clone is a handful of copies.
type state struct {
	exec *core.Execution
	pcs  []int
	// lockHolder[loc] = thread index holding it, or -1.
	lockHolder []int
	// lastRead[thread*numLocs+loc] = op ID of the write last read-from,
	// or -1.
	lastRead []int
	// regs is the register file, indexed by the Explorer's regOrder
	// position (regIdx); Set distinguishes "never written" from zero.
	regs []regVal
	// The incremental fingerprint (fingerprint.go): labels[id] is op
	// id's interleaving-invariant label, nops[t] counts the ops thread t
	// has issued, and acc is a stack of accumulator groups, one entry per
	// Explorer frame, pushed per issued op; the top group is current.
	labels []opLabel
	nops   []int32
	acc    []fpAcc
}

// regVal is one register slot.
type regVal struct {
	Val core.Value
	Set bool
}

func (s *state) clone() *state {
	return &state{
		exec:       s.exec.Clone(),
		pcs:        append([]int(nil), s.pcs...),
		lockHolder: append([]int(nil), s.lockHolder...),
		lastRead:   append([]int(nil), s.lastRead...),
		regs:       append([]regVal(nil), s.regs...),
		labels:     append([]opLabel(nil), s.labels...),
		nops:       append([]int32(nil), s.nops...),
		acc:        append([]fpAcc(nil), s.acc...),
	}
}

// Explorer runs exhaustive exploration of a program.
//
// The zero-configuration path (NewExplorer / Explore) uses the memoized
// parallel engine: converging interleavings are deduplicated by canonical
// state fingerprint and independent subtrees run on a worker pool. Both
// features can be disabled per field; every mode produces identical
// Outcomes, Stuck and outcome lists, bit-for-bit, run-to-run.
type Explorer struct {
	prog   Program
	locIdx map[string]core.Loc
	// regOrder is the program's registers sorted by name, fixed at Run
	// start; regIdx maps a register name to its regOrder slot. Register
	// state lives in a flat per-state file indexed by slot.
	regOrder []string
	regIdx   map[string]int
	// frames are the relabelings every state keeps a fingerprint
	// accumulator for: frames[0] is the identity, and with Symmetry the
	// program's non-identity automorphisms follow (symmetry.go).
	frames []*autPerm
	// MaxStates aborts pathological explorations. An exploration that
	// completes using exactly MaxStates states succeeds; the budget
	// error is returned only when work remained beyond it.
	MaxStates int
	// Workers is the number of exploration goroutines. 0 means
	// GOMAXPROCS; 1 explores sequentially.
	Workers int
	// Memoize enables canonical-state deduplication: states reached by
	// different interleavings that are isomorphic (same per-thread
	// progress, lock holders, registers, read views and dependency
	// graph modulo issue-order relabeling) share one subtree, with
	// path-counted outcomes matching plain tree enumeration exactly.
	Memoize bool
	// Symmetry additionally collapses states related by a program
	// automorphism — a thread/location permutation mapping the program
	// onto itself (symmetry.go) — so fully interchangeable threads cost
	// one orbit instead of t! states. Outcomes, Stuck and per-outcome
	// path counts are unchanged; only States shrinks. Requires Memoize;
	// programs without non-trivial automorphisms run identically to
	// plain memoization (modulo the canonicalization probe cost).
	Symmetry bool
}

// NewExplorer prepares an exploration of p with the default engine
// (memoized, GOMAXPROCS workers).
func NewExplorer(p Program) *Explorer {
	return &Explorer{prog: p, MaxStates: 2_000_000, Memoize: true}
}

// Explore runs the exhaustive search and returns the result.
func Explore(p Program) (*Result, error) {
	return NewExplorer(p).Run()
}

// validate rejects malformed programs before exploration: unknown
// locations, and releases of a lock the thread cannot hold. Lock holding
// is static per thread — an acquire by t makes t the holder until t's own
// release — so a release-without-hold is detectable from the thread's
// instruction sequence alone, independent of interleaving. The check is
// deliberately stricter than dynamic reachability: a program containing a
// non-holder release is rejected even if exploration would never step it
// (e.g. it sits behind an unsatisfiable await), which also keeps the
// error deterministic under parallel exploration.
func (x *Explorer) validate() error {
	for ti, th := range x.prog.Threads {
		held := make(map[string]int)
		for pc, in := range th {
			if in.Kind == IFence && in.Loc == "" {
				continue
			}
			if _, ok := x.locIdx[in.Loc]; !ok {
				return fmt.Errorf("litmus %s: unknown location %q", x.prog.Name, in.Loc)
			}
			switch in.Kind {
			case IAcquire:
				held[in.Loc]++
			case IRelease:
				if held[in.Loc] == 0 {
					return fmt.Errorf("litmus %s: thread %d instruction %d releases %s without holding it",
						x.prog.Name, ti, pc, in.Loc)
				}
				held[in.Loc]--
			}
		}
	}
	return nil
}

// prepare lowers the program, builds the location and register indexes,
// validates, and returns the root state.
func (x *Explorer) prepare() (*state, error) {
	// Wide locations and block instructions lower to per-word model
	// operations first; word-granular programs pass through untouched.
	x.prog = LowerWide(x.prog)
	exec := core.NewExecution()
	x.locIdx = make(map[string]core.Loc, len(x.prog.Locs))
	for _, name := range x.prog.Locs {
		x.locIdx[name] = exec.AddLoc(name)
	}
	if err := x.validate(); err != nil {
		return nil, err
	}
	x.regOrder = x.regOrder[:0]
	x.regIdx = make(map[string]int)
	for _, th := range x.prog.Threads {
		for _, in := range th {
			if in.Reg != "" {
				if _, ok := x.regIdx[in.Reg]; !ok {
					x.regIdx[in.Reg] = -1 // slot assigned after the sort
					x.regOrder = append(x.regOrder, in.Reg)
				}
			}
		}
	}
	sort.Strings(x.regOrder)
	for i, name := range x.regOrder {
		x.regIdx[name] = i
	}
	if x.Symmetry && !x.Memoize {
		return nil, fmt.Errorf("litmus %s: Symmetry requires Memoize (orbit results live in the memo table)", x.prog.Name)
	}
	x.frames = []*autPerm{x.identityPerm()}
	if x.Symmetry {
		x.frames = append(x.frames, x.automorphisms()...)
	}
	s := &state{
		exec:       exec,
		pcs:        make([]int, len(x.prog.Threads)),
		lockHolder: make([]int, len(x.prog.Locs)),
		lastRead:   make([]int, len(x.prog.Threads)*len(x.prog.Locs)),
		regs:       make([]regVal, len(x.regOrder)),
	}
	for i := range s.lockHolder {
		s.lockHolder[i] = -1
	}
	for i := range s.lastRead {
		s.lastRead[i] = -1
	}
	x.rootKeys(s)
	return s, nil
}

// Run executes the exploration.
func (x *Explorer) Run() (*Result, error) {
	s, err := x.prepare()
	if err != nil {
		return nil, err
	}
	workers := x.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &engine{x: x, memoize: x.Memoize, maxStates: int64(x.MaxStates)}
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

// readCandidates returns the write op IDs a read of loc by thread t may
// return in state s, honoring Definition 12 and read monotonicity. The
// readable set is computed against the live execution (core.ReadableAt);
// no clone is taken.
func (x *Explorer) readCandidates(s *state, t int, loc core.Loc) []int {
	cands := s.exec.ReadableAt(core.ProcID(t), loc)
	last := s.lastRead[t*len(x.prog.Locs)+int(loc)]
	var out []int
	for _, b := range cands {
		// Monotonicity: never read a write that is strictly before
		// the one we already observed, in our own view.
		if last >= 0 && b != last {
			if s.exec.ReachableP(core.ProcID(t), b, last) {
				continue
			}
		}
		out = append(out, b)
	}
	return out
}

// move is one enabled transition: thread t executes the instruction at
// its pc, reading from the write with op ID from when it is a read or an
// await (from is -1 otherwise).
type move struct {
	t, from int
}

// moves lists the enabled transitions of s: threads in index order, and a
// read's candidate writes in ascending ID order. An empty list with
// unfinished threads means s is stuck. Malformed programs (a release by a
// non-holder) surface as an error; validate catches them statically
// before exploration, so this path is defense in depth.
func (x *Explorer) moves(s *state) ([]move, error) {
	var ms []move
	for t, th := range x.prog.Threads {
		if s.pcs[t] >= len(th) {
			continue
		}
		in := th[s.pcs[t]]
		switch in.Kind {
		case IWrite, IFence, IFlush:
		case IAcquire:
			if s.lockHolder[x.locIdx[in.Loc]] != -1 {
				continue // blocked
			}
		case IRelease:
			if s.lockHolder[x.locIdx[in.Loc]] != t {
				return nil, fmt.Errorf("litmus %s: thread %d releases %s without holding it",
					x.prog.Name, t, in.Loc)
			}
		case IRead, IAwaitEq:
			for _, b := range x.readCandidates(s, t, x.locIdx[in.Loc]) {
				if in.Kind == IAwaitEq && readValue(s, b) != in.Val {
					continue // blocked until the awaited value is readable
				}
				ms = append(ms, move{t: t, from: b})
			}
			continue
		default:
			return nil, fmt.Errorf("litmus %s: unknown instruction kind %d", x.prog.Name, in.Kind)
		}
		ms = append(ms, move{t: t, from: -1})
	}
	return ms, nil
}

// readValue is the value a read returns from write b: ⊥ reads as zero.
func readValue(s *state, b int) core.Value {
	if op := s.exec.Op(b); !op.IsInit {
		return op.Val
	}
	return 0
}

// undoRec is what do overwrote and undo restores: the moving thread, and
// for reads the previous last-read view and register. The rest of the
// inverse follows from the instruction itself: pcs step back, an acquire
// frees its lock, a release returns it to the thread, and the issued
// model operation is the execution's newest.
type undoRec struct {
	t        int
	lastRead int
	reg      regVal
}

// do applies move m to s in place and returns the record that undoes it.
func (x *Explorer) do(s *state, m move) undoRec {
	t := m.t
	in := x.prog.Threads[t][s.pcs[t]]
	u := undoRec{t: t}
	p := core.ProcID(t)
	loc := x.locIdx[in.Loc]
	var op *core.Op
	switch in.Kind {
	case IWrite:
		op = s.exec.Write(p, loc, in.Val)
	case IFence:
		if in.Loc != "" {
			op = s.exec.FenceLoc(p, loc)
		} else {
			op = s.exec.Fence(p)
		}
	case IAcquire:
		op = s.exec.Acquire(p, loc)
		s.lockHolder[loc] = t
	case IRelease:
		op = s.exec.Release(p, loc)
		s.lockHolder[loc] = -1
	case IRead, IAwaitEq:
		val := readValue(s, m.from)
		op = s.exec.Read(p, loc, val)
		lr := &s.lastRead[t*len(x.prog.Locs)+int(loc)]
		u.lastRead, *lr = *lr, m.from
		if in.Reg != "" {
			r := &s.regs[x.regIdx[in.Reg]]
			u.reg, *r = *r, regVal{Val: val, Set: true}
		}
	}
	if op != nil {
		x.fold(s, t, op)
	}
	s.pcs[t]++
	return u
}

// undo reverts the move recorded by u, which must be the last move done
// on s that has not been undone.
func (x *Explorer) undo(s *state, u undoRec) {
	t := u.t
	s.pcs[t]--
	in := x.prog.Threads[t][s.pcs[t]]
	loc := x.locIdx[in.Loc]
	switch in.Kind {
	case IFlush:
		return // issued no model operation
	case IAcquire:
		s.lockHolder[loc] = -1
	case IRelease:
		s.lockHolder[loc] = t
	case IRead, IAwaitEq:
		s.lastRead[t*len(x.prog.Locs)+int(loc)] = u.lastRead
		if in.Reg != "" {
			s.regs[x.regIdx[in.Reg]] = u.reg
		}
	}
	s.exec.Undo()
	x.unfold(s, t)
}

// symmetric reports whether states are keyed by orbit: Symmetry is on
// and the program has a non-identity automorphism.
func (x *Explorer) symmetric() bool { return len(x.frames) > 1 }

// canonical renders a register assignment deterministically. regOrder is
// sorted by name, so walking the register file in slot order yields the
// same "r1=42 r2=0" form the map-based renderer produced.
func (x *Explorer) canonical(regs []regVal) string {
	var b strings.Builder
	for i, r := range regs {
		if !r.Set {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(x.regOrder[i])
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(uint64(r.Val), 10))
	}
	if b.Len() == 0 {
		return noObservations
	}
	return b.String()
}

// noObservations is the canonical outcome of a program with no observed
// registers.
const noObservations = "(no observations)"
