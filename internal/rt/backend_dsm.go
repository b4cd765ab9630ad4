package rt

import (
	"fmt"

	"pmc/internal/mem"
	"pmc/internal/sim"
	"pmc/internal/soc"
)

// dsmBackend implements the distributed-shared-memory architecture of
// Table II's third column: every owner of a memory domain holds a full
// replica of the shared heap, and the SDRAM is not used for shared data.
// Reads and writes touch only the caller's own replica; coherence is
// maintained purely with remote writes over the write-only NoC:
//
//   - exit_x is lazy: modifications stay in the replica;
//   - when an object's lock is transferred to a tile served by another
//     replica, the previous owner writes its version of the object into
//     the acquirer's replica before the grant is delivered ("the local
//     version of the object is written to the local memory of the
//     acquiring processor"); a transfer between tiles sharing a replica
//     moves no data;
//   - flush(X) broadcasts the object to every other replica, which is what
//     lets concurrent read-only observers (pollers) eventually see
//     updates;
//   - entry_ro locks multi-word objects; word-sized objects are read
//     lock-free from the replica — the property the paper's FIFO exploits
//     ("the read and write pointers are only polled from local memory,
//     which is fast and does not influence the execution of other
//     processors").
//
// The domain is the only parameter: dsm keeps one replica per tile in its
// single-cycle local memory; cdsm keeps one per cluster in the cluster
// scratch, reached through the crossbar, so a flush fans out to one
// gateway per cluster and only cross-cluster handoffs move data. On the
// flat (1-cluster) system cdsm degenerates to shared-scratch locking.
// Verification applies unchanged because every operation lowers to the
// same per-word model reads and writes in either domain.
type dsmBackend struct {
	name   string
	domain func(*soc.System) *soc.Domain
	d      *soc.Domain // resolved at Init
	owner  map[int]int // object ID -> replica owner that last held it exclusively
}

// DSM returns the distributed-shared-memory backend (Section VI-B): one
// replica per tile, in its local memory.
func DSM() Backend { return newDSM("dsm", localDomain) }

// CDSM returns the clustered distributed-shared-memory backend: one
// replica per cluster, in its scratch memory.
func CDSM() Backend { return newDSM("cdsm", clusterDomain) }

func newDSM(name string, domain func(*soc.System) *soc.Domain) *dsmBackend {
	return &dsmBackend{name: name, domain: domain, owner: make(map[int]int)}
}

func (b *dsmBackend) Name() string { return b.name }

func (b *dsmBackend) Init(rt *Runtime) {
	if rt.Sys.DLock == nil {
		panic(fmt.Sprintf("rt: the %s backend needs the distributed lock", b.name))
	}
	b.d = b.domain(rt.Sys)
}

// replicaAddr returns the address of o's replica in owner's memory: the
// shared heap maps 1:1 into every replica.
func (b *dsmBackend) replicaAddr(owner int, o *Object) mem.Addr {
	return b.d.Addr(owner, o.Addr)
}

// mine returns the address of o's replica serving the caller's tile.
func (b *dsmBackend) mine(c *Ctx, o *Object) mem.Addr {
	return b.replicaAddr(b.d.Owner(c.T.ID), o)
}

// lockTransfer carries the object data with the lock handoff: home
// notifies the previous owner, the previous owner pushes its version into
// the acquirer's replica, and the grant follows once the data has landed.
// Tiles sharing a replica find the data already there. The runtime's
// transfer mux dispatches here for objects routed to this backend.
func (b *dsmBackend) lockTransfer(rt *Runtime, o *Object, from, to int, t sim.Time) sim.Time {
	fromOwner, toOwner := b.d.Owner(from), b.d.Owner(to)
	if fromOwner == toOwner {
		return t
	}
	net := rt.Sys.Net
	home := rt.Sys.DLock.Home(o.LockID)
	notifyAt := t + net.ControlLatency(home, from, 8)
	buf := make([]byte, o.WordCount()*4)
	b.d.Mem(fromOwner).ReadBlock(b.replicaAddr(fromOwner, o), buf)
	return net.PostWriteDelayed(from, to, b.replicaAddr(toOwner, o), buf, notifyAt)
}

// initReplicas writes words into every replica of o (setup, outside
// simulated time; also the adaptive router's seeding on migration).
func (b *dsmBackend) initReplicas(rt *Runtime, o *Object, words []uint32) {
	for w := 0; w < b.d.Owners(); w++ {
		m, base := b.d.Mem(w), b.replicaAddr(w, o)
		for i, v := range words {
			m.Write32(base+mem.Addr(4*i), v)
		}
	}
}

// recordOwner makes the replica serving tile the authoritative one for o.
func (b *dsmBackend) recordOwner(o *Object, tile int) { b.owner[o.ID] = b.d.Owner(tile) }

// readCanonical returns the authoritative copy: the replica of the owner
// that last held the object exclusively (zero value: owner 0).
func (b *dsmBackend) readCanonical(rt *Runtime, o *Object, wordIdx int) uint32 {
	w := b.owner[o.ID]
	return b.d.Mem(w).Read32(b.replicaAddr(w, o) + mem.Addr(4*wordIdx))
}

// writeBack copies the caller's replica of o to its canonical SDRAM
// address with the modelled DMA (the adaptive router leaving dsm).
func (b *dsmBackend) writeBack(c *Ctx, o *Object) {
	c.T.CopyFromDomain(c.P, b.d, b.mine(c, o), o.Addr, o.WordCount()*4)
}

// heapLimit bounds the shared heap to the replica memory size.
func (b *dsmBackend) heapLimit(rt *Runtime) int { return b.d.Capacity() }

func (b *dsmBackend) EntryX(c *Ctx, o *Object) {
	c.T.AcquireLock(c.P, o.LockID)
	b.recordOwner(o, c.T.ID)
}

func (b *dsmBackend) ExitX(c *Ctx, o *Object) {
	// Lazy release: nothing to publish; the transfer hook moves data
	// when the lock next changes replicas.
	c.T.ReleaseLock(c.P, o.LockID)
}

func (b *dsmBackend) EntryRO(c *Ctx, o *Object) {
	if o.Size > AtomicSize {
		c.T.AcquireLock(c.P, o.LockID)
		c.scopes[o].locked = true
	}
}

func (b *dsmBackend) ExitRO(c *Ctx, o *Object) {
	if c.scopes[o].locked {
		c.T.ReleaseLock(c.P, o.LockID)
	}
}

func (b *dsmBackend) Fence(c *Ctx) {
	// In-order core, local-memory and crossbar accesses complete in
	// order: compiler barrier only.
}

// Flush broadcasts the object from the caller's replica to every other
// replica as a single burst of posted writes over the write-only NoC,
// addressed at each other owner's gateway tile: the core programs the
// network interface once and the NI streams the per-destination messages
// back-to-back (per-flit pipelining), instead of the core paying an
// injection cycle per destination. Delivery remains asynchronous (best
// effort, as the model requires).
func (b *dsmBackend) Flush(c *Ctx, o *Object) {
	owners := b.d.Owners()
	if owners < 2 {
		return
	}
	my := b.d.Owner(c.T.ID)
	buf := make([]byte, o.WordCount()*4)
	b.d.Mem(my).ReadBlock(b.replicaAddr(my, o), buf)
	dsts := make([]int, 0, owners-1)
	for w := 0; w < owners; w++ {
		if w != my {
			dsts = append(dsts, b.d.Gateway(w))
		}
	}
	c.T.Exec(c.P, 1) // one injection op programs the whole burst
	c.rt.Sys.Net.PostWriteFan(c.T.ID, dsts, func(t int) mem.Addr { return b.replicaAddr(b.d.Owner(t), o) }, buf)
}

func (b *dsmBackend) Read32(c *Ctx, o *Object, off int) uint32 {
	return c.T.ReadDomain32(c.P, b.d, b.mine(c, o)+mem.Addr(off))
}

func (b *dsmBackend) Write32(c *Ctx, o *Object, off int, v uint32) {
	c.T.WriteDomain32(c.P, b.d, b.mine(c, o)+mem.Addr(off), v)
}

// ReadRange streams words out of the caller's replica. The memory serves
// one word per load either way, so the range costs exactly the word loop;
// the DSM block win lives in CopyRange and the flush burst.
func (b *dsmBackend) ReadRange(c *Ctx, o *Object, off int, dst []uint32) {
	readDomainRange(c, b.d, b.mine(c, o)+mem.Addr(off), dst)
}

// WriteRange streams words into the caller's replica.
func (b *dsmBackend) WriteRange(c *Ctx, o *Object, off int, src []uint32) {
	writeDomainRange(c, b.d, b.mine(c, o)+mem.Addr(off), src)
}

// CopyRange moves data between two replicas in the caller's memory with
// the dual-port DMA: read and write ports overlap at one word per cycle,
// half the cost of the load/store-per-word loop.
func (b *dsmBackend) CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool) {
	srcA := b.mine(c, src) + mem.Addr(srcOff)
	dstA := b.mine(c, dst) + mem.Addr(dstOff)
	return copyDomainDMA(c, b.d, srcA, dstA, words, wantVals), true
}
