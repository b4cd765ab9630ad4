package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// push is one logged ScheduleAt call.
type push struct {
	at  Time
	seq uint64
}

// stepStorm runs procs processes against a background event storm. Each
// process walks a pseudo-random sequence of waits, and at each wake it may
// schedule storm events of its own, so equal-time order between process
// wakes, their side effects and the storm is exercised. With steps set the
// processes run their walks as WaitSteps continuations, otherwise as the
// reference loop of WaitUntil calls. It returns the log of every push, the
// kernel's counters and Run's error.
func stepStorm(t *testing.T, steps bool, procs int, maxTime Time) ([]push, Stats, error) {
	t.Helper()
	k := New()
	k.MaxTime = maxTime
	var log []push
	k.OnSchedule(func(at Time, seq uint64) { log = append(log, push{at, seq}) })

	rng := xorshift(0x2545f491)
	fired := 0
	var storm func()
	storm = func() {
		fired++
		if fired > 3000 {
			return
		}
		for n := rng.next(3) + 1; n > 0; n-- {
			k.Schedule(stormDelay(&rng)%64, storm)
		}
	}
	k.Schedule(0, storm)

	for i := 0; i < procs; i++ {
		prng := xorshift(0x9e3779b9 + uint32(i)*7919)
		k.Spawn(fmt.Sprintf("walker%d", i), func(p *Proc) {
			for round := 0; round < 40; round++ {
				left := int(prng.next(12)) + 1
				step := func() (Time, bool) {
					if left == 0 {
						return 0, true
					}
					left--
					if prng.next(4) == 0 {
						k.Schedule(Time(prng.next(6)), func() {})
					}
					return k.Now() + Time(prng.next(5)), false
				}
				if steps {
					p.WaitSteps(step)
				} else {
					for {
						next, done := step()
						if done {
							break
						}
						p.WaitUntil(next)
					}
				}
				p.Wait(Time(prng.next(3)))
			}
		})
	}
	err := k.Run()
	return log, k.Stats(), err
}

// TestWaitStepsLockstep is the kernel-level exactness test of WaitSteps:
// over an event storm, a continuation and the reference loop of WaitUntil
// calls must push the identical (at, seq) sequence, including when the
// watchdog cuts the run short.
func TestWaitStepsLockstep(t *testing.T) {
	for _, maxTime := range []Time{0, 300} {
		ref, refStats, refErr := stepStorm(t, false, 6, maxTime)
		got, gotStats, gotErr := stepStorm(t, true, 6, maxTime)
		if fmt.Sprint(refErr) != fmt.Sprint(gotErr) {
			t.Fatalf("MaxTime %d: Run error %v, reference %v", maxTime, gotErr, refErr)
		}
		if (maxTime != 0) != (gotErr != nil) {
			t.Fatalf("MaxTime %d: Run error %v", maxTime, gotErr)
		}
		if gotStats.Steps == 0 || gotStats.InPlace == 0 || gotStats.Resumes >= refStats.Resumes {
			t.Fatalf("MaxTime %d: storm does not exercise continuations: %+v (reference %+v)", maxTime, gotStats, refStats)
		}
		if len(ref) < 3000 {
			t.Fatalf("MaxTime %d: storm too small to be meaningful: %d pushes", maxTime, len(ref))
		}
		if i := firstDiff(ref, got); i >= 0 {
			t.Fatalf("MaxTime %d: push %d differs (of %d vs %d)", maxTime, i, len(got), len(ref))
		}
	}
}

func firstDiff(a, b []push) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestWaitStepsCounts checks where a continuation's wakes run: in place
// when nothing is due first, otherwise inside a kernel event, with one
// coroutine resume when the step reports done.
func TestWaitStepsCounts(t *testing.T) {
	k := New()
	var wakes []Time
	k.Spawn("a", func(p *Proc) {
		n := 0
		p.WaitSteps(func() (Time, bool) {
			wakes = append(wakes, p.Now())
			n++
			return p.Now() + 3, n > 3
		})
		wakes = append(wakes, p.Now())
	})
	k.Spawn("b", func(p *Proc) { p.Wait(5) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, 3, 6, 9, 9}; !slices.Equal(wakes, want) {
		t.Fatalf("wakes at %v, want %v", wakes, want)
	}
	// a's first wait (3) finds b's start pending, so the step at 3 runs in
	// the kernel; its wait (6) finds b's wake at 5 pending, so the step at
	// 6 runs in the kernel too; the wait to 9 advances in place and its
	// step reports done, resuming a. b's one wait is slow.
	want := Stats{Events: 5, InPlace: 1, Slow: 3, Resumes: 4, Steps: 3}
	if got := k.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}

// TestWaitStepsPanicSurfaces: a panic raised inside a step that runs in a
// kernel event comes out of Run, like one raised in a process body.
func TestWaitStepsPanicSurfaces(t *testing.T) {
	k := New()
	k.Spawn("other", func(p *Proc) { p.Wait(1) })
	k.Spawn("stepper", func(p *Proc) {
		p.WaitSteps(func() (Time, bool) {
			if p.Now() > 0 {
				panic("step boom")
			}
			return 2, false
		})
	})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "step boom") {
			t.Fatalf("recovered %v, want the step's panic", r)
		}
		if k.Stats().Steps != 1 {
			t.Fatalf("the panicking step ran in the coroutine, not the kernel (steps %d)", k.Stats().Steps)
		}
	}()
	_ = k.Run()
	t.Fatal("Run returned normally")
}
