package rt

import (
	"fmt"

	"pmc/internal/mem"
	"pmc/internal/soc"
)

// spmBackend implements the scratch-pad architecture of Table II's fourth
// column: the canonical copy of every shared object lives in SDRAM, and an
// entry copies the object into a memory domain for the scope's lifetime:
//
//   - entry_x locks the object and copies SDRAM → staging memory in one
//     burst; all accesses inside the scope hit the staged copy;
//   - exit_x copies the (possibly modified) object back to SDRAM and
//     unlocks;
//   - entry_ro copies the object in (locking multi-word objects only for
//     the duration of the copy — unlike SWCC/DSM, readers then proceed
//     concurrently); exit_ro discards the copy;
//   - flush copies the object back to SDRAM without closing the scope.
//
// The domain is the only parameter: spm stages into the tile's
// single-cycle local memory; cspm stages into the cluster scratch — a
// larger capacity shared by all member tiles, at the price of the crossbar
// cycle on every access. Staged copies are carved out of one arena per
// domain owner held by the runtime, so every worker served by the same
// memory (two workers on one tile, or the tiles of one cluster) allocates
// disjoint staging space. The simulation kernel is single-threaded, so
// allocation order (and therefore every address and cycle count) is
// deterministic.
//
// This is the architecture of the motion-estimation case study
// (Section VI-C): kernels with high reuse per scope amortize the copies.
type spmBackend struct {
	name   string
	domain func(*soc.System) *soc.Domain
	d      *soc.Domain // resolved at Init
}

// SPM returns the scratch-pad-memory backend: scopes stage into the
// tile's local memory.
func SPM() Backend { return &spmBackend{name: "spm", domain: localDomain} }

// CSPM returns the clustered scratch-pad backend: scopes stage into the
// cluster's scratch memory.
func CSPM() Backend { return &spmBackend{name: "cspm", domain: clusterDomain} }

func (b *spmBackend) Name() string     { return b.name }
func (b *spmBackend) Init(rt *Runtime) { b.d = b.domain(rt.Sys) }

func (b *spmBackend) stage(c *Ctx, o *Object) mem.Addr {
	owner := b.d.Owner(c.T.ID)
	off, ok := c.rt.arena(b.d, owner).alloc(o.WordCount() * 4)
	if !ok {
		panic(fmt.Sprintf("rt: %s: no staging space left on tile %d for %s (%d B)", b.name, c.T.ID, o.Name, o.Size))
	}
	addr := b.d.Addr(owner, off)
	c.T.CopyToDomain(c.P, b.d, o.Addr, addr, o.WordCount()*4)
	return addr
}

func (b *spmBackend) unstage(c *Ctx, o *Object, addr mem.Addr) {
	owner, off := b.d.Offset(addr)
	c.rt.arena(b.d, owner).release(off, o.WordCount()*4)
}

// stagedWord reads word i of the staged copy of o open in c (outside
// simulated time; the recorder's view of the copy-back).
func (b *spmBackend) stagedWord(c *Ctx, o *Object, i int) uint32 {
	return b.d.MemOf(c.T.ID).Read32(c.scopes[o].spmAddr + mem.Addr(4*i))
}

func (b *spmBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
	c.scopes[o].spmAddr = b.stage(c, o)
}

func (b *spmBackend) ExitX(c *Ctx, o *Object) {
	s := c.scopes[o]
	c.T.CopyFromDomain(c.P, b.d, s.spmAddr, o.Addr, o.WordCount()*4)
	b.unstage(c, o, s.spmAddr)
	c.T.ReleaseLock(c.P, o.LockID)
}

func (b *spmBackend) EntryRO(c *Ctx, o *Object) {
	// Lock held only while copying (Table II: "the object is locked
	// before copying and unlocked afterwards").
	locked := o.Size > AtomicSize
	if locked {
		c.T.AcquireLock(c.P, o.LockID)
	}
	c.scopes[o].spmAddr = b.stage(c, o)
	if locked {
		c.T.ReleaseLock(c.P, o.LockID)
	}
}

func (b *spmBackend) ExitRO(c *Ctx, o *Object) {
	b.unstage(c, o, c.scopes[o].spmAddr) // discard the copy
}

func (b *spmBackend) Fence(c *Ctx) {
	// Copies complete before the annotation returns; compiler barrier
	// only.
}

func (b *spmBackend) Flush(c *Ctx, o *Object) {
	s := c.scopes[o]
	c.T.CopyFromDomain(c.P, b.d, s.spmAddr, o.Addr, o.WordCount()*4)
}

func (b *spmBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	s, ok := c.scopes[o]
	if !ok {
		// Discipline violation already recorded; fall back to the
		// canonical copy so the simulation can continue.
		return c.T.ReadShared32Uncached(c.P, o.Addr+mem.Addr(off))
	}
	return c.T.ReadDomain32(c.P, b.d, s.spmAddr+mem.Addr(off))
}

func (b *spmBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	s, ok := c.scopes[o]
	if !ok {
		c.T.WriteShared32Uncached(c.P, o.Addr+mem.Addr(off), v)
		return
	}
	c.T.WriteDomain32(c.P, b.d, s.spmAddr+mem.Addr(off), v)
}

// ReadRange streams words out of the staged copy (the whole object was
// staged by one DMA burst at entry; see stage). Out-of-scope ranges —
// already reported as violations — fall back to the uncached canonical
// copy, word by word, like Read32.
func (b *spmBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	s, ok := c.scopes[o]
	if !ok {
		readRangeByWords(b, c, o, off, dst)
		return
	}
	readDomainRange(c, b.d, s.spmAddr+mem.Addr(off), dst)
}

// WriteRange streams words into the staged copy.
func (b *spmBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	s, ok := c.scopes[o]
	if !ok {
		writeRangeByWords(b, c, o, off, src)
		return
	}
	writeDomainRange(c, b.d, s.spmAddr+mem.Addr(off), src)
}

// CopyRange moves data between two staged copies with the staging
// memory's dual-port DMA (one word per cycle, read and write overlapped).
// When either object is not staged the caller falls back to the ranged
// read/write lowering.
func (b *spmBackend) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	ss, okS := c.scopes[src]
	ds, okD := c.scopes[dst]
	if !okS || !okD {
		return nil, false
	}
	return copyDomainDMA(c, b.d, ss.spmAddr+mem.Addr(srcOff), ds.spmAddr+mem.Addr(dstOff), words, wantVals), true
}
