package core

import "fmt"

// Execution is the model of a program's state at one moment in time
// (Definition 1): E = (P, V, O, ≺). P and V grow implicitly as operations
// and locations appear; O and ≺ grow by Exec, which applies the Table I
// transition rules (Definition 4). Orderings are never removed, except by
// Undo, which takes back the newest operation as a whole.
type Execution struct {
	locNames []string
	ops      []*Op
	out      [][]Edge
	in       [][]Edge
	// floor is the op count below which Undo refuses to go: the count at
	// which the execution was created or last cloned (see Clone).
	floor int

	// Pattern indexes, used to apply Table I incrementally. Keys follow
	// the paper's patterns: per (proc, loc), per loc, or per proc.
	readsPL    map[procLoc][]int
	writesPL   map[procLoc][]int // initial op included for every proc via init list
	acquiresPL map[procLoc][]int
	releasesPL map[procLoc][]int
	releasesL  map[Loc][]int // any process, per location (≺S rule); incl. init
	readsP     map[ProcID][]int
	writesP    map[ProcID][]int
	acquiresP  map[ProcID][]int
	releasesP  map[ProcID][]int
	fencesP    map[ProcID][]int  // location-less fences
	fencesPL   map[procLoc][]int // location-scoped fences (Section IV-D extension)
	initOf     map[Loc]int
}

type procLoc struct {
	p ProcID
	v Loc
}

// NewExecution returns an initialized, empty execution.
func NewExecution() *Execution {
	return &Execution{
		readsPL:    make(map[procLoc][]int),
		writesPL:   make(map[procLoc][]int),
		acquiresPL: make(map[procLoc][]int),
		releasesPL: make(map[procLoc][]int),
		releasesL:  make(map[Loc][]int),
		readsP:     make(map[ProcID][]int),
		writesP:    make(map[ProcID][]int),
		acquiresP:  make(map[ProcID][]int),
		releasesP:  make(map[ProcID][]int),
		fencesP:    make(map[ProcID][]int),
		fencesPL:   make(map[procLoc][]int),
		initOf:     make(map[Loc]int),
	}
}

// Clone returns a copy of the execution that can grow independently — the
// litmus explorer materializes the roots of its parallel subtrees with it.
// Op values are shared (they are immutable once issued), and so are the
// backing arrays of the index lists and edge lists: the copy's slice
// headers are capacity-clipped, so an append through the clone always
// reallocates instead of writing into shared backing, and an in-place
// append by the original lands beyond every clipped header's capacity.
// A clone costs one header copy per structure instead of a deep copy of
// every index list.
//
// The sharing stays sound only while neither side rewrites the shared
// prefix, which Undo could do by truncating a list and appending into it
// again. So Clone sets the undo floor of both executions to the current
// op count: Undo panics on any operation issued before the clone. Above
// the floor each side owns what it appended, and Exec/Undo pairs on
// either side never touch the other. Clone writes the receiver's floor,
// so concurrent Clones of one execution must be serialized; the clones
// themselves may then grow on separate goroutines.
func (e *Execution) Clone() *Execution {
	e.floor = len(e.ops)
	c := &Execution{
		floor:      len(e.ops),
		locNames:   clip(e.locNames),
		ops:        clip(e.ops),
		out:        make([][]Edge, len(e.out)),
		in:         make([][]Edge, len(e.in)),
		readsPL:    clonePLMap(e.readsPL),
		writesPL:   clonePLMap(e.writesPL),
		acquiresPL: clonePLMap(e.acquiresPL),
		releasesPL: clonePLMap(e.releasesPL),
		releasesL:  cloneLocMap(e.releasesL),
		readsP:     cloneProcMap(e.readsP),
		writesP:    cloneProcMap(e.writesP),
		acquiresP:  cloneProcMap(e.acquiresP),
		releasesP:  cloneProcMap(e.releasesP),
		fencesP:    cloneProcMap(e.fencesP),
		fencesPL:   clonePLMap(e.fencesPL),
		initOf:     make(map[Loc]int, len(e.initOf)),
	}
	for i := range e.out {
		c.out[i] = clip(e.out[i])
		c.in[i] = clip(e.in[i])
	}
	for k, v := range e.initOf {
		c.initOf[k] = v
	}
	return c
}

// clip returns s with its capacity clipped to its length: a header-only
// copy whose backing array is shared but can never be appended into.
func clip[S ~[]E, E any](s S) S { return s[:len(s):len(s)] }

func clonePLMap(m map[procLoc][]int) map[procLoc][]int {
	c := make(map[procLoc][]int, len(m))
	for k, v := range m {
		c[k] = clip(v)
	}
	return c
}

func cloneLocMap(m map[Loc][]int) map[Loc][]int {
	c := make(map[Loc][]int, len(m))
	for k, v := range m {
		c[k] = clip(v)
	}
	return c
}

func cloneProcMap(m map[ProcID][]int) map[ProcID][]int {
	c := make(map[ProcID][]int, len(m))
	for k, v := range m {
		c[k] = clip(v)
	}
	return c
}

// AddLoc introduces a shared location with the given display name and
// issues its initial operation, which behaves like a write and release by
// the pseudo-process ⊥ (Definition 3), so reads and acquires always have a
// predecessor.
func (e *Execution) AddLoc(name string) Loc {
	v := Loc(len(e.locNames))
	e.locNames = append(e.locNames, name)
	op := &Op{
		ID:     len(e.ops),
		Kind:   KWrite, // representative kind; IsInit widens the matching
		Proc:   InitProc,
		Loc:    v,
		IsInit: true,
		Label:  fmt.Sprintf("init: %s=⊥", name),
	}
	e.ops = append(e.ops, op)
	e.out = append(e.out, nil)
	e.in = append(e.in, nil)
	e.initOf[v] = op.ID
	// The init op participates in the write and release patterns for
	// every process; record it in the per-location lists consulted with
	// any-proc scope, and treat per-proc matching specially (matchProc).
	e.releasesL[v] = append(e.releasesL[v], op.ID)
	return v
}

// LocName returns the display name of v.
func (e *Execution) LocName(v Loc) string {
	if v == NoLoc {
		return "*"
	}
	return e.locNames[v]
}

// NumLocs returns how many locations exist.
func (e *Execution) NumLocs() int { return len(e.locNames) }

// Ops returns the operations in issue order. The slice is shared; treat it
// as read-only.
func (e *Execution) Ops() []*Op { return e.ops }

// Op returns the operation with the given ID.
func (e *Execution) Op(id int) *Op { return e.ops[id] }

// Edges returns all dependency edges.
func (e *Execution) Edges() []Edge {
	var all []Edge
	for _, es := range e.out {
		all = append(all, es...)
	}
	return all
}

// In returns the in-edges of op id.
func (e *Execution) In(id int) []Edge { return e.in[id] }

// Out returns the out-edges of op id.
func (e *Execution) Out(id int) []Edge { return e.out[id] }

func (e *Execution) addEdge(from, to int, ord Ord) {
	ed := Edge{From: from, To: to, Ord: ord}
	e.out[from] = append(e.out[from], ed)
	e.in[to] = append(e.in[to], ed)
}

// eachEarlier calls f, in issue order within each index list, with the
// IDs of issued operations matching the rule's Earlier pattern for a new
// operation by proc p on loc v (NoLoc for global fences). The initial
// operation of a location matches the write and release patterns for any
// process (Definition 3). It allocates nothing: Exec runs it once per rule.
//
// Location-scoped fences (the optimization Section IV-D mentions: "one
// could offer more complex fences on specific locations") carry a location
// and match only operations on it; a plain fence (NoLoc) spans all
// locations. A location fence in the history likewise only constrains
// operations on its own location.
func (e *Execution) eachEarlier(r Rule, p ProcID, v Loc, f func(int)) {
	// The fence column/row widens matching to all locations only for
	// location-less fences.
	globalFence := (r.Earlier == KFence || r.New == KFence) && v == NoLoc
	var ids, more []int
	switch r.Earlier {
	case KRead:
		if globalFence {
			ids = e.readsP[p]
		} else {
			ids = e.readsPL[procLoc{p, v}]
		}
	case KWrite:
		if globalFence {
			ids = e.writesP[p]
		} else {
			ids = e.writesPL[procLoc{p, v}]
			if init, ok := e.initOf[v]; ok && r.New != KFence {
				// The init write comes first (it matches any proc).
				f(init)
			}
		}
	case KAcquire:
		if globalFence {
			ids = e.acquiresP[p]
		} else {
			ids = e.acquiresPL[procLoc{p, v}]
		}
	case KRelease:
		switch {
		case r.AnyProc:
			ids = e.releasesL[v] // includes init
		case globalFence:
			ids = e.releasesP[p]
		default:
			ids = e.releasesPL[procLoc{p, v}]
		}
	case KFence:
		if v == NoLoc {
			ids = e.fencesP[p]
		} else {
			// Both plain fences and same-location fences order
			// the new operation on v.
			ids, more = e.fencesP[p], e.fencesPL[procLoc{p, v}]
		}
	}
	for _, id := range ids {
		f(id)
	}
	for _, id := range more {
		f(id)
	}
}

// Exec issues a new operation and applies the Table I rules, returning it
// (Definition 4). val is the written value for writes and the returned
// value for reads; it is ignored for other kinds. Fences must use NoLoc;
// all other kinds need a valid location.
func (e *Execution) Exec(k Kind, p ProcID, v Loc, val Value, label string) *Op {
	// Fences may carry NoLoc (span all locations, the paper's default)
	// or a location (the Section IV-D scoped-fence extension).
	if v != NoLoc && int(v) >= len(e.locNames) {
		panic(fmt.Sprintf("core: op %s on unknown location %d", k, v))
	}
	if k != KFence && v == NoLoc {
		panic(fmt.Sprintf("core: op %s needs a location", k))
	}
	if p == InitProc {
		panic("core: InitProc cannot issue operations")
	}
	op := &Op{ID: len(e.ops), Kind: k, Proc: p, Loc: v, Val: val, Label: label}
	e.ops = append(e.ops, op)
	e.out = growSlot(e.out)
	e.in = growSlot(e.in)

	for _, r := range RulesFor(k) {
		e.eachEarlier(r, p, v, func(from int) {
			ord := r.Ord
			// Edges out of the initial operation are globally
			// visible: every process agrees on the initial state.
			if e.ops[from].IsInit && ord == OrdLocal {
				ord = OrdProgram
			}
			e.addEdge(from, op.ID, ord)
		})
	}

	// Update the pattern indexes.
	switch k {
	case KRead:
		e.readsPL[procLoc{p, v}] = append(e.readsPL[procLoc{p, v}], op.ID)
		e.readsP[p] = append(e.readsP[p], op.ID)
	case KWrite:
		e.writesPL[procLoc{p, v}] = append(e.writesPL[procLoc{p, v}], op.ID)
		e.writesP[p] = append(e.writesP[p], op.ID)
	case KAcquire:
		e.acquiresPL[procLoc{p, v}] = append(e.acquiresPL[procLoc{p, v}], op.ID)
		e.acquiresP[p] = append(e.acquiresP[p], op.ID)
	case KRelease:
		e.releasesL[v] = append(e.releasesL[v], op.ID)
		e.releasesP[p] = append(e.releasesP[p], op.ID)
		e.releasesPL[procLoc{p, v}] = append(e.releasesPL[procLoc{p, v}], op.ID)
	case KFence:
		if v == NoLoc {
			e.fencesP[p] = append(e.fencesP[p], op.ID)
		} else {
			e.fencesPL[procLoc{p, v}] = append(e.fencesPL[procLoc{p, v}], op.ID)
		}
	}
	return op
}

// growSlot appends an empty edge list for a new op. A slot left behind by
// Undo is reused with its capacity, so a do/undo walk stops reallocating
// edge lists once warm. Slots beyond len were appended by this execution
// above its floor, so no clone shares them.
func growSlot(s [][]Edge) [][]Edge {
	if n := len(s); n < cap(s) {
		s = s[:n+1]
		s[n] = s[n][:0]
		return s
	}
	return append(s, nil)
}

// Undo takes back the newest operation: the inverse of the Exec that
// issued it. Table I only adds edges into the newest op, so its in-edges
// are exactly the trailing out-edges of its predecessors, and its ID is
// the trailing entry of every index list it joined; undoing it is three
// truncations. Capacity is kept, so the next Exec reuses it. Undo panics
// on an initial operation and on any operation below the floor set by
// Clone.
func (e *Execution) Undo() {
	n := len(e.ops) - 1
	if n < 0 || e.ops[n].IsInit {
		panic("core: Undo of an initial operation")
	}
	if n < e.floor {
		panic(fmt.Sprintf("core: Undo of op %d below the clone floor %d", n, e.floor))
	}
	op := e.ops[n]
	for _, ed := range e.in[n] {
		e.out[ed.From] = e.out[ed.From][:len(e.out[ed.From])-1]
	}
	e.in[n] = e.in[n][:0]
	e.ops[n] = nil
	e.ops, e.out, e.in = e.ops[:n], e.out[:n], e.in[:n]

	p, v := op.Proc, op.Loc
	pl := procLoc{p, v}
	switch op.Kind {
	case KRead:
		e.readsPL[pl] = pop(e.readsPL[pl])
		e.readsP[p] = pop(e.readsP[p])
	case KWrite:
		e.writesPL[pl] = pop(e.writesPL[pl])
		e.writesP[p] = pop(e.writesP[p])
	case KAcquire:
		e.acquiresPL[pl] = pop(e.acquiresPL[pl])
		e.acquiresP[p] = pop(e.acquiresP[p])
	case KRelease:
		e.releasesL[v] = pop(e.releasesL[v])
		e.releasesP[p] = pop(e.releasesP[p])
		e.releasesPL[pl] = pop(e.releasesPL[pl])
	case KFence:
		if v == NoLoc {
			e.fencesP[p] = pop(e.fencesP[p])
		} else {
			e.fencesPL[pl] = pop(e.fencesPL[pl])
		}
	}
}

// pop drops the last element of an index list.
func pop(s []int) []int { return s[:len(s)-1] }

// Convenience issue helpers.

// Read issues a read of v by p that returned val.
func (e *Execution) Read(p ProcID, v Loc, val Value) *Op {
	return e.Exec(KRead, p, v, val, "")
}

// Write issues a write of val to v by p.
func (e *Execution) Write(p ProcID, v Loc, val Value) *Op {
	return e.Exec(KWrite, p, v, val, "")
}

// Acquire issues an acquire of v by p.
func (e *Execution) Acquire(p ProcID, v Loc) *Op {
	return e.Exec(KAcquire, p, v, 0, "")
}

// Release issues a release of v by p.
func (e *Execution) Release(p ProcID, v Loc) *Op {
	return e.Exec(KRelease, p, v, 0, "")
}

// Fence issues a fence by p spanning all locations.
func (e *Execution) Fence(p ProcID) *Op {
	return e.Exec(KFence, p, NoLoc, 0, "")
}

// FenceLoc issues a location-scoped fence by p: it orders only operations
// on v (the optimization Section IV-D mentions). It is strictly weaker
// than Fence.
func (e *Execution) FenceLoc(p ProcID, v Loc) *Op {
	return e.Exec(KFence, p, v, 0, "")
}
