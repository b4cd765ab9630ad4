package litmus

import (
	"math/bits"

	"pmc/internal/core"
)

// Canonical state fingerprinting. Two exploration states are isomorphic —
// they have identical futures, outcome for outcome and count for count —
// when they agree on per-thread progress (pcs), lock holders, registers,
// per-thread last-read views and the execution's dependency graph, after
// relabeling operation IDs to a form independent of issue interleaving.
//
// The relabeling names every operation by a label fixed when it is
// issued: (process, position among that process's operations) for thread
// operations — within one process issue order IS program order, so the
// label does not depend on how the threads interleaved — and (⊥, location)
// for the location-initialization ops, which are identical in every state.
// All model semantics consulted during exploration — Table I pattern
// matches, visibility, reachability, last-write and readable sets — are
// functions of the labeled (ops, edges) graph, never of raw issue-order
// positions, so the labeled graph captures the entire future behavior.
//
// The graph is hashed as a multiset: every operation contributes one
// token (label, kind, location, value, IsInit) and every edge one token
// (from-label, to-label, ordering), each token strongly mixed to 128 bits,
// and the fingerprint accumulator is their lane-wise sum mod 2⁶⁴. A sum
// does not care about order, so no relabeling pass or edge sort is
// needed, and it is incremental: core.Execution.Exec only ever adds the
// new operation and its in-edges, so do adds O(in-degree) tokens and undo
// pops the accumulator it saved (state.acc is a stack). A fingerprint
// query then mixes the accumulator with the small per-state part — pcs,
// lock holders, last-read labels, registers — which costs O(threads ×
// locations) and allocates nothing.
//
// Collision bound: modelling tokens as independent uniform 128-bit
// values, two different token multisets have equal sums with probability
// about 2⁻¹²⁸ (the difference of the sums is a nonzero combination of
// uniform values with small integer multiplicities), and the final
// two-lane mix keeps that order, so over n distinct states the chance of
// any memo-key collision is about the birthday bound n²/2¹²⁹.

// fingerprint is a 128-bit canonical state hash, used as a memo-table key.
type fingerprint struct {
	hi, lo uint64
}

// fpHash accumulates 64-bit tokens into two independent lanes: an FNV-1a
// style lane and a SplitMix64-finalizer style lane over a rotated copy.
// Its methods take and return values, so a hash being built stays in
// registers.
type fpHash struct {
	hi, lo uint64
}

func newFpHash() fpHash {
	return fpHash{hi: 14695981039346656037, lo: 0x9e3779b97f4a7c15}
}

func (h fpHash) mix(x uint64) fpHash {
	h.hi = (h.hi ^ x) * 1099511628211
	l := h.lo ^ bits.RotateLeft64(x, 31)
	l = (l ^ (l >> 30)) * 0xbf58476d1ce4e5b9
	h.lo = l ^ (l >> 27)
	return h
}

func (h fpHash) mixInt(x int) fpHash { return h.mix(uint64(int64(x))) }

func (h fpHash) mixString(s string) fpHash {
	h = h.mixInt(len(s))
	for i := 0; i < len(s); i++ {
		h = h.mix(uint64(s[i]))
	}
	return h
}

// opLabel is the interleaving-invariant name of an issued operation:
// (thread, position among the thread's operations), or (InitProc,
// location) for an initialization op.
type opLabel struct {
	proc, pos int32
}

// bits packs a label into one hash word.
func (l opLabel) bits() uint64 { return uint64(uint32(l.proc))<<32 | uint64(uint32(l.pos)) }

// label maps an identity-frame label into frame p: a thread op moves to
// the image thread at the same position, an init op to the image
// location.
func (p *autPerm) label(l opLabel) opLabel {
	if l.proc == int32(core.InitProc) {
		return opLabel{l.proc, int32(p.locs[l.pos])}
	}
	return opLabel{int32(p.threads[l.proc]), l.pos}
}

// loc maps a location into frame p; NoLoc (fences) stays put.
func (p *autPerm) loc(v core.Loc) core.Loc {
	if v == core.NoLoc {
		return v
	}
	return core.Loc(p.locs[v])
}

// fpAcc is a multiset-hash accumulator: the lane-wise sum of the tokens
// of every operation and edge of an execution, in one frame.
type fpAcc struct {
	hi, lo uint64
}

func (a *fpAcc) add(t fpAcc) {
	a.hi += t.hi
	a.lo += t.lo
}

// Token seeds keep operation and edge tokens in separate hash domains.
var (
	opSeed   = fpAcc{hi: 0x2d358dccaa6c78a5, lo: 0x8bb84b93962eacc9}
	edgeSeed = fpAcc{hi: 0x4b33a62ed433d4a3, lo: 0x4d5a2da51de1aa47}
)

// mum is the wyhash mixer: the two halves of the 128-bit product of a
// and b, folded by xor.
func mum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// token hashes three words into one 128-bit multiset element, each lane
// a two-round wyhash-style mix under its own secrets.
func token(seed fpAcc, a, b, c uint64) fpAcc {
	return fpAcc{
		hi: mum(mum(a^seed.hi, b^0xa0761d6478bd642f)^0xe7037ed1a0b428db, c^0x8ebc6af09c88c6e3),
		lo: mum(mum(a^seed.lo, b^0x589965cc75374cc3)^0x1d8e4e27c47d124f, c^0x9e3779b97f4a7c15),
	}
}

// opToken is the element of op, labeled lab in the identity frame, in
// frame p.
func (p *autPerm) opToken(lab opLabel, op *core.Op) fpAcc {
	var init uint64
	if op.IsInit {
		init = 1
	}
	return token(opSeed, p.label(lab).bits(),
		uint64(op.Kind)|uint64(uint32(p.loc(op.Loc)))<<8|init<<40, uint64(op.Val))
}

// edgeToken is the element of an edge between two frame labels.
func edgeToken(from, to opLabel, ord core.Ord) fpAcc {
	return token(edgeSeed, from.bits(), to.bits(), uint64(ord))
}

// rootKeys labels the initialization ops of s's fresh execution and seeds
// one accumulator per frame with their tokens (AddLoc issues no edges).
func (x *Explorer) rootKeys(s *state) {
	ops := s.exec.Ops()
	s.labels = make([]opLabel, len(ops))
	for id, op := range ops {
		s.labels[id] = opLabel{int32(core.InitProc), int32(op.Loc)}
	}
	s.nops = make([]int32, len(x.prog.Threads))
	s.acc = make([]fpAcc, len(x.frames))
	for k, p := range x.frames {
		for id, op := range ops {
			s.acc[k].add(p.opToken(s.labels[id], op))
		}
	}
}

// fold labels op, just issued by thread t, and pushes one accumulator per
// frame: the current one plus the tokens of op and its in-edges (the only
// edges Exec adds).
func (x *Explorer) fold(s *state, t int, op *core.Op) {
	lab := opLabel{int32(t), s.nops[t]}
	s.nops[t]++
	s.labels = append(s.labels, lab)
	in := s.exec.In(op.ID)
	cur := len(s.acc) - len(x.frames)
	for k, p := range x.frames {
		a := s.acc[cur+k]
		a.add(p.opToken(lab, op))
		to := p.label(lab)
		for _, ed := range in {
			a.add(edgeToken(p.label(s.labels[ed.From]), to, ed.Ord))
		}
		s.acc = append(s.acc, a)
	}
}

// unfold is fold's inverse, for the op thread t issued last.
func (x *Explorer) unfold(s *state, t int) {
	s.nops[t]--
	s.labels = s.labels[:len(s.labels)-1]
	s.acc = s.acc[:len(s.acc)-len(x.frames)]
}

// fingerprint is the canonical hash of s in frame k (0 = identity): its
// maintained accumulator for that frame finished with the per-state part.
// The key in frame k of an automorphism p is exactly the identity key of
// the state p(s) that the permuted-and-renamed program would have
// reached — the basis of symmetry reduction (symmetry.go).
func (x *Explorer) fingerprint(s *state, k int) fingerprint {
	return x.key(s, s.acc[len(s.acc)-len(x.frames)+k], s.labels, x.frames[k])
}

// Entry tags of key's sparse lists, in the top two bits of an entry's
// first word (indexes stay far below 2⁶²), so that the lists need no
// terminators to parse unambiguously.
const (
	heldTag = 1 << 62
	readTag = 2 << 62
	regTag  = 3 << 62
)

// key finishes a fingerprint in frame p: its lanes start from the
// execution's accumulator acc and absorb s's per-state part, each walked
// in the frame's index order — thread progress, then the held locks, the
// set last-read views (as frame labels, via labels) and the set
// registers. In a typical state most locks are free and most views and
// registers unset, so those three lists are sparse: one tagged entry per
// set slot, carrying its frame index.
func (x *Explorer) key(s *state, acc fpAcc, labels []opLabel, p *autPerm) fingerprint {
	h := fpHash(acc)
	for t := range s.pcs {
		h = h.mixInt(s.pcs[p.invT[t]])
	}
	for l := range s.lockHolder {
		if holder := s.lockHolder[p.invL[l]]; holder >= 0 {
			h = h.mix(heldTag | uint64(l)<<31 | uint64(p.threads[holder]))
		}
	}
	numLocs := len(x.prog.Locs)
	for t := range s.pcs {
		row := s.lastRead[p.invT[t]*numLocs:]
		for l := 0; l < numLocs; l++ {
			if id := row[p.invL[l]]; id >= 0 {
				h = h.mix(readTag | uint64(t*numLocs+l))
				h = h.mix(p.label(labels[id]).bits())
			}
		}
	}
	for r := range s.regs {
		if rv := s.regs[p.regFrom[r]]; rv.Set {
			h = h.mix(regTag | uint64(r))
			h = h.mix(uint64(rv.Val))
		}
	}
	return fingerprint{hi: h.hi, lo: h.lo}
}
