package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a coroutine that advances simulated time by
// calling Wait and friends and otherwise runs instantaneously in simulated
// time. All Proc methods must be called from the process's own coroutine
// (inside the body passed to Spawn); Unpark is the one exception and may be
// called from anywhere inside the simulation.
//
// The one-token handshake with the kernel rides on iter.Pull coroutines
// rather than channel ping-pong: a coroutine switch transfers control
// directly without waking the Go scheduler, so a suspend/resume pair costs
// a function call instead of two futex-mediated goroutine wakeups — and,
// critically for parallel sweeps, concurrently running simulations stop
// migrating across Ps on every handoff. A panic inside a process body
// propagates out of Kernel.Run on the caller's goroutine, where batch
// engines can contain it.
type Proc struct {
	k    *Kernel
	id   int
	name string

	// next resumes the coroutine until its next yield (kernel side);
	// yield hands the token back to the kernel (process side).
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// resumeFn is the proc's reusable wake-up event body (one closure per
	// process instead of one per wait); stepFn is the wake-up event body
	// of a WaitSteps continuation, which runs step in the kernel.
	resumeFn func()
	stepFn   func()
	step     func() (Time, bool)

	done   bool
	parked bool
	// unparkHint is set by Unpark and read back by Park so callers can
	// pass a small token (e.g. who woke us).
	unparkHint any
}

// ID returns the process's spawn-order index.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// start runs the body with the handshake protocol. Called by the kernel in
// an event context.
func (p *Proc) start(body func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
	})
	p.k.resume(p)
}

// suspend schedules nothing; it just gives the token back and blocks until
// the kernel resumes this process.
func (p *Proc) suspend() {
	p.yield(struct{}{})
}

// Wait advances this process's view of time by d cycles. Wait(0) yields the
// processor: all events already scheduled for the current cycle run first.
func (p *Proc) Wait(d Time) {
	p.WaitUntil(p.k.now + d)
}

// WaitUntil blocks the process until absolute time t (>= now).
func (p *Proc) WaitUntil(t Time) {
	if p.done {
		panic("sim: WaitUntil on finished proc")
	}
	if !p.wakeAt(t, p.resumeFn) {
		p.suspend()
	}
}

// wakeAt moves p's clock to t. If the kernel can advance in place it
// does so and reports true; otherwise it schedules wake at t and reports
// false, and p stays blocked until that event runs.
func (p *Proc) wakeAt(t Time, wake func()) bool {
	k := p.k
	if t < k.now {
		panic(fmt.Sprintf("sim: proc %q waits until %d, in the past (now %d)", p.name, t, k.now))
	}
	if k.canAdvance(t) {
		k.now = t
		k.stats.InPlace++
		return true
	}
	k.stats.Slow++
	k.ScheduleAt(t, wake)
	return false
}

// canAdvance reports whether a wait until t may move the clock in place
// instead of through the event queue: no other event is due at or before
// t, the watchdog cannot fire, and the kernel is not stopping. A round
// trip through the queue would then deterministically hand control
// straight back with now == t, so skipping it is exact, not approximate:
// nothing can observe the skipped window, because nothing is scheduled
// inside it.
func (k *Kernel) canAdvance(t Time) bool {
	return !k.stopped && (k.MaxTime == 0 || t <= k.MaxTime) && !k.eventBefore(t)
}

// WaitSteps blocks the process while a timed continuation runs on its
// behalf. The kernel calls step now, and again at each time it returns,
// until step reports done; then WaitSteps returns. Between calls the
// process is blocked exactly as in WaitUntil, and each wake advances in
// place under the same conditions. A wake that cannot advance in place
// runs step inside the kernel's own event, without resuming the
// coroutine: the coroutine comes back only once step is done.
//
// The result is exact: WaitSteps(step) makes the same ScheduleAt calls,
// at the same times and in the same order, as a loop that calls step and
// then WaitUntil(next) in the process. Between a resume and its next wait
// a coroutine runs atomically with respect to the kernel, so running the
// same code inside the wake event instead is indistinguishable. Each call
// to step must therefore do what the process would have done between two
// waits, and nothing that needs the coroutine (a wait, a park).
//
// step is held until it reports done; pass a func value that outlives
// the call (a method value bound once) to keep WaitSteps allocation-free.
// A panic in step propagates out of Kernel.Run.
func (p *Proc) WaitSteps(step func() (next Time, done bool)) {
	if p.done {
		panic("sim: WaitSteps on finished proc")
	}
	for {
		next, done := step()
		if done {
			return
		}
		if !p.wakeAt(next, p.stepFn) {
			p.step = step
			p.suspend()
			return
		}
	}
}

// runSteps is the wake event of a process blocked in WaitSteps: it runs
// the step in the kernel and resumes the coroutine once the step is done.
func (p *Proc) runSteps() {
	k := p.k
	for {
		k.stats.Steps++
		next, done := p.step()
		if done {
			k.resume(p)
			return
		}
		if !p.wakeAt(next, p.stepFn) {
			return
		}
	}
}

// Park blocks the process indefinitely until another process or event calls
// Unpark. It returns the hint passed to Unpark. A process blocked in Park
// counts towards deadlock detection.
func (p *Proc) Park() any {
	if p.parked {
		panic(fmt.Sprintf("sim: proc %q parked twice", p.name))
	}
	p.parked = true
	p.k.parked++
	p.suspend()
	hint := p.unparkHint
	p.unparkHint = nil
	return hint
}

// Unpark schedules the parked process p to resume at the current time with
// the given hint. It panics if p is not parked; use IsParked to test.
// Unpark may be called from any event or process context.
func (p *Proc) Unpark(hint any) {
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked proc %q", p.name))
	}
	p.parked = false
	p.k.parked--
	p.unparkHint = hint
	p.k.ScheduleAt(p.k.now, p.resumeFn)
}

// IsParked reports whether the process is currently blocked in Park.
func (p *Proc) IsParked() bool { return p.parked }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }
