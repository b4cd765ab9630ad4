package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"testing/quick"
)

// heapQueue is the reference event queue: a plain binary heap ordered by
// (at, seq), the readable specification of the kernel's dispatch order.
type heapQueue struct{ h eventHeap }

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (q *heapQueue) push(e *event) { heap.Push(&q.h, e) }

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) nextAt() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

func (q *heapQueue) len() int { return len(q.h) }

// lockstep feeds the timing wheel and the reference heap the same pushes
// and checks that every peek and pop agrees on (at, seq).
type lockstep struct {
	t    testing.TB
	w    wheelQueue
	h    heapQueue
	seq  uint64
	now  Time
	pops int
}

func (l *lockstep) push(at Time) {
	l.seq++
	l.w.push(&event{at: at, seq: l.seq})
	l.h.push(&event{at: at, seq: l.seq})
}

// pop dequeues from both queues and returns false once they are empty.
func (l *lockstep) pop() bool {
	l.t.Helper()
	wat, wok := l.w.nextAt()
	hat, hok := l.h.nextAt()
	if wat != hat || wok != hok || l.w.len() != l.h.len() {
		l.t.Fatalf("pop %d: wheel peeks (%d, %v) of %d, heap (%d, %v) of %d",
			l.pops, wat, wok, l.w.len(), hat, hok, l.h.len())
	}
	w, h := l.w.pop(), l.h.pop()
	if w == nil || h == nil {
		if w != h {
			l.t.Fatalf("pop %d: wheel %v, heap %v", l.pops, w, h)
		}
		return false
	}
	if w.at != h.at || w.seq != h.seq {
		l.t.Fatalf("pop %d: wheel (%d, seq %d), heap (%d, seq %d)", l.pops, w.at, w.seq, h.at, h.seq)
	}
	l.now = w.at
	l.pops++
	return true
}

// xorshift is the storms' deterministic pseudo-random source.
type xorshift uint32

func (r *xorshift) next(n uint32) uint32 {
	*r ^= *r << 13
	*r ^= *r >> 17
	*r ^= *r << 5
	return uint32(*r) % n
}

// stormDelay draws a delay from a mix of same-cycle events, short hops
// within a level-0 window, and long jumps that cross wheel-level
// boundaries.
func stormDelay(rng *xorshift) Time {
	switch rng.next(5) {
	case 0:
		return 0 // same cycle
	case 1:
		return Time(rng.next(8)) // same level-0 window, mostly
	case 2:
		return Time(rng.next(1 << 10)) // crosses level 0→1
	case 3:
		return Time(rng.next(1 << 20)) // crosses level 1→2
	default:
		return Time(rng.next(1 << 28)) // deep levels
	}
}

// TestWheelMatchesHeapOrder is the queue-level differential test: through
// a deterministic event storm — each dispatched event schedules up to four
// more at pseudo-random delays — the timing wheel must pop exactly the
// heap's (time, seq) order.
func TestWheelMatchesHeapOrder(t *testing.T) {
	l := &lockstep{t: t}
	rng := xorshift(0x1234567)
	for range 4 {
		l.push(stormDelay(&rng))
	}
	for l.pop() {
		if l.seq < 4000 {
			for n := rng.next(4) + 1; n > 0; n-- {
				l.push(l.now + stormDelay(&rng))
			}
		}
	}
	if l.pops < 4000 {
		t.Fatalf("storm too small to be meaningful: %d events", l.pops)
	}
}

// Property: any interleaving of pushes (at or after the last popped time,
// including far beyond the wheel's 48-bit horizon) and pops leaves the
// wheel popping the heap's order.
func TestWheelMatchesHeapProperty(t *testing.T) {
	prop := func(script []uint32) bool {
		l := &lockstep{t: t}
		for _, x := range script {
			switch x % 4 {
			case 0:
				l.pop()
			case 1:
				l.push(l.now + Time(x>>2)%64)
			case 2:
				l.push(l.now + Time(x>>2))
			default:
				// Coarse far times collide, so the overflow list
				// must keep equal times in seq order.
				l.push(l.now + Time(x>>30+1)<<48)
			}
		}
		for l.pop() {
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelDispatchOrder runs an event storm through the kernel itself
// and checks that it dispatches in strictly increasing (time, scheduling
// order).
func TestKernelDispatchOrder(t *testing.T) {
	k := New()
	type stamp struct {
		at Time
		id int
	}
	var order []stamp
	rng := xorshift(0x1234567)
	id := 0
	var schedule func()
	schedule = func() {
		for n := rng.next(4) + 1; n > 0; n-- {
			id++
			myID := id
			k.Schedule(stormDelay(&rng), func() {
				order = append(order, stamp{k.Now(), myID})
				if id < 4000 {
					schedule()
				}
			})
		}
	}
	schedule()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) < 4000 {
		t.Fatalf("storm too small to be meaningful: %d events", len(order))
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a.at > b.at || (a.at == b.at && a.id > b.id) {
			t.Fatalf("event %d dispatched (%d, id %d) after (%d, id %d)", i, b.at, b.id, a.at, a.id)
		}
	}
}

// TestWheelSameTimestampOrder: events scheduled for one cycle must run in
// scheduling order, including events filed into an already-cascaded slot
// and events scheduled from within that cycle.
func TestWheelSameTimestampOrder(t *testing.T) {
	k := New()
	var order []int
	at := Time(1000)
	for i := 0; i < 10; i++ {
		i := i
		k.ScheduleAt(at, func() { order = append(order, i) })
	}
	// A later time first, then more events back at `at` — the wheel must
	// keep them behind the earlier ones.
	k.ScheduleAt(at+5000, func() { order = append(order, 100) })
	for i := 10; i < 20; i++ {
		i := i
		k.ScheduleAt(at, func() {
			order = append(order, i)
			if i == 10 {
				// Scheduled mid-cycle: runs after everything already
				// filed for this cycle.
				k.ScheduleAt(at, func() { order = append(order, 50) })
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 50, 100}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, order, want)
		}
	}
}

// TestWheelMaxTime: the watchdog must fire on the first event strictly past
// MaxTime, and events exactly at MaxTime must still run.
func TestWheelMaxTime(t *testing.T) {
	k := New()
	k.MaxTime = 100
	ran := 0
	k.ScheduleAt(100, func() { ran++ })
	if err := k.Run(); err != nil {
		t.Fatalf("event at MaxTime aborted: %v", err)
	}
	if ran != 1 {
		t.Fatal("event at MaxTime did not run")
	}
	k2 := New()
	k2.MaxTime = 100
	k2.ScheduleAt(101, func() { t.Fatal("event past MaxTime ran") })
	if err := k2.Run(); err == nil {
		t.Fatal("watchdog did not fire past MaxTime")
	}
}

// TestWheelMaxTimeFastPath: a process sleeping exactly to MaxTime completes;
// one cycle further aborts. Exercises the WaitUntil fast path against the
// wheel's nextAt.
func TestWheelMaxTimeFastPath(t *testing.T) {
	k := New()
	k.MaxTime = 500
	k.Spawn("sleeper", func(p *Proc) { p.Wait(500) })
	if err := k.Run(); err != nil {
		t.Fatalf("sleep to MaxTime failed: %v", err)
	}
	if k.Now() != 500 {
		t.Fatalf("now = %d, want 500", k.Now())
	}
	k2 := New()
	k2.MaxTime = 500
	k2.Spawn("sleeper", func(p *Proc) { p.Wait(501) })
	if err := k2.Run(); err == nil {
		t.Fatal("sleep past MaxTime not caught")
	}
}

// TestWheelOverflowHorizon: events beyond the wheel's 48-bit window must
// survive in the overflow list and come back in correct order.
func TestWheelOverflowHorizon(t *testing.T) {
	k := New()
	var order []Time
	far := Time(1) << 50
	times := []Time{far + 3, 10, far, far + 3, 1 << 49, 2}
	for _, at := range times {
		at := at
		k.ScheduleAt(at, func() { order = append(order, at) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 10, 1 << 49, far, far + 3, far + 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("overflow order: got %v, want %v", order, want)
		}
	}
}

// TestWheelPeekDoesNotLoseEvents: nextAt must not advance the wheel. A
// process waits far ahead (peeking the queue on the way), then an event
// scheduled back near the present must still be dispatched.
func TestWheelPeekDoesNotLoseEvents(t *testing.T) {
	k := New()
	hit := false
	k.Spawn("waiter", func(p *Proc) {
		p.Wait(1 << 20) // fast path peeks nextAt
		k.Schedule(5, func() { hit = true })
		p.Wait(100000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("event scheduled after a long fast-path wait was lost")
	}
}

// BenchmarkQueuePushPop measures one pop plus one push at a steady event
// population, for the wheel and the reference heap.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, population := range []int{32, 1024} {
		b.Run(fmt.Sprintf("heap/%d", population), func(b *testing.B) {
			benchPushPop(b, &heapQueue{}, population)
		})
		b.Run(fmt.Sprintf("wheel/%d", population), func(b *testing.B) {
			benchPushPop(b, &wheelQueue{}, population)
		})
	}
}

func benchPushPop[Q interface {
	push(*event)
	pop() *event
}](b *testing.B, q Q, population int) {
	nop := func() {}
	var seq uint64
	for i := 0; i < population; i++ {
		seq++
		q.push(&event{at: Time(i * 7), seq: seq, fn: nop})
	}
	rng := xorshift(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		e.at += Time(rng.next(1024))
		seq++
		e.seq = seq
		q.push(e)
	}
}
