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

	// index holds the Table I pattern lists, in issue order, so that Exec
	// applies the table incrementally; joins says which lists an op is
	// on. initOf maps each location to its initial op.
	index  map[patKey][]int
	initOf []int
}

// patKey names one pattern list of the index, pat(k, p, v): the ops of
// kind k by process p on location v.
//   - (k, p, v) lists p's ops of kind k on v; for fences, v is the
//     fence's own scope, so (KFence, p, NoLoc) lists p's plain fences.
//   - (k, p, NoLoc) for any other kind lists p's ops of kind k across
//     all locations, the pattern a location-less fence matches.
//   - (KRelease, InitProc, v) lists the releases of v by any process,
//     the init op included (⊥ is "equivalent to all processes",
//     Definition 3): the ≺S rule's pattern.
//
// The triple is packed into one word (kind in the top 3 bits, p+1 in the
// next 29, v+1 in the low 32) so that index lookups take the map's fast
// path for 64-bit keys (a three-field struct key takes the generic path,
// which doubled the cost of Exec+Undo).
// Exec keeps p within maxProc, so the packing is injective.
type patKey uint64

// maxProc is the largest process ID that may issue operations.
const maxProc = 1<<28 - 1

func pat(k Kind, p ProcID, v Loc) patKey {
	return patKey(uint64(k)<<61 | uint64(uint32(p+1))<<32 | uint64(uint32(v+1)))
}

// joins returns the pattern lists op is appended to when issued, keys[:n].
// Exec and Undo both take their lists from here. An init op joins only
// the ≺S list; eachEarlier matches it as every process's write through
// initOf.
func joins(op *Op) (keys [3]patKey, n int) {
	if op.IsInit {
		keys[0] = pat(KRelease, InitProc, op.Loc)
		return keys, 1
	}
	keys[0] = pat(op.Kind, op.Proc, op.Loc)
	n = 1
	if op.Kind != KFence {
		keys[n] = pat(op.Kind, op.Proc, NoLoc)
		n++
	}
	if op.Kind == KRelease {
		keys[n] = pat(KRelease, InitProc, op.Loc)
		n++
	}
	return keys, n
}

// NewExecution returns an initialized, empty execution.
func NewExecution() *Execution {
	return &Execution{index: make(map[patKey][]int)}
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
		floor:    len(e.ops),
		locNames: clip(e.locNames),
		ops:      clip(e.ops),
		out:      make([][]Edge, len(e.out)),
		in:       make([][]Edge, len(e.in)),
		index:    make(map[patKey][]int, len(e.index)),
		initOf:   clip(e.initOf),
	}
	for i := range e.out {
		c.out[i] = clip(e.out[i])
		c.in[i] = clip(e.in[i])
	}
	for k, ids := range e.index {
		c.index[k] = clip(ids)
	}
	return c
}

// clip returns s with its capacity clipped to its length: a header-only
// copy whose backing array is shared but can never be appended into.
func clip[S ~[]E, E any](s S) S { return s[:len(s):len(s)] }

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
	e.initOf = append(e.initOf, op.ID)
	e.join(op)
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
	// With v == NoLoc the new op is a plain fence, and (Earlier, p, NoLoc)
	// is p's Earlier-kind ops across all locations.
	key := pat(r.Earlier, p, v)
	switch {
	case r.AnyProc:
		key = pat(KRelease, InitProc, v)
	case r.Earlier == KWrite && r.New != KFence:
		// The init write comes first (it matches any proc).
		f(e.initOf[v])
	case r.Earlier == KFence && v != NoLoc:
		// Both plain fences and same-location fences order the new
		// operation on v, plain fences first.
		for _, id := range e.index[pat(KFence, p, NoLoc)] {
			f(id)
		}
	}
	for _, id := range e.index[key] {
		f(id)
	}
}

// Exec issues a new operation and applies the Table I rules, returning it
// (Definition 4). val is the written value for writes and the returned
// value for reads; it is ignored for other kinds. Fences may use NoLoc;
// all other kinds need a valid location. p must be a process ID in
// [0, 2^28).
func (e *Execution) Exec(k Kind, p ProcID, v Loc, val Value, label string) *Op {
	// Fences may carry NoLoc (span all locations, the paper's default)
	// or a location (the Section IV-D scoped-fence extension).
	if v < NoLoc || int(v) >= len(e.locNames) {
		panic(fmt.Sprintf("core: op %s on unknown location %d", k, v))
	}
	if k != KFence && v == NoLoc {
		panic(fmt.Sprintf("core: op %s needs a location", k))
	}
	if p < 0 || p > maxProc {
		panic(fmt.Sprintf("core: process %d cannot issue operations (InitProc is ⊥; others must be in 0..%d)", p, maxProc))
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

	e.join(op)
	return op
}

// join appends op to every pattern list it joins.
func (e *Execution) join(op *Op) {
	keys, n := joins(op)
	for _, k := range keys[:n] {
		e.index[k] = append(e.index[k], op.ID)
	}
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
	keys, nk := joins(op)
	for _, k := range keys[:nk] {
		ids := e.index[k]
		e.index[k] = ids[:len(ids)-1]
	}
}

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
