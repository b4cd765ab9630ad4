package soc

import (
	"pmc/internal/mem"
	"pmc/internal/sim"
)

// UseLineWaitReference makes every tile of s fetch instructions through
// fetchLineWaits, the reference for the continuation walk.
func UseLineWaitReference(s *System) { s.lineWaits = (*Tile).fetchLineWaits }

// fetchLineWaits is the reference instruction fetch: the walk as a loop in
// the process, one AccessLine on a miss and one Wait per cache line. The
// product walk (fetchAndExec) must push the same (at, seq) events.
func (t *Tile) fetchLineWaits(p *sim.Proc, n int) {
	t.Stats.Instrs += uint64(n)
	lineBytes := t.instrsPerLine() * 4
	remaining := n
	for remaining > 0 {
		regionSize := t.hotSize
		regionOff := 0
		if t.inCold {
			regionSize = t.coldSize
			regionOff = t.hotSize
		}
		lineOff := t.pc % lineBytes
		inLine := (lineBytes - lineOff) / 4
		if inLine > remaining {
			inLine = remaining
		}
		lineAddr := t.codeBase + mem.Addr(regionOff+t.pc-lineOff)
		if res, _ := t.IC.Probe(lineAddr); !res {
			// Miss: fill from SDRAM.
			t.Stats.IStall += t.Sys.SDRAM.AccessLine(p, lineAddr)
			t.IC.Read32(lineAddr) // install the line (data immaterial)
			t.Sys.SDRAM.LineFills++
		}
		p.Wait(sim.Time(inLine))
		t.Stats.Busy += sim.Time(inLine)
		t.pc += inLine * 4
		if t.pc >= regionSize {
			t.pc = 0
			if t.inCold {
				t.inCold = false
				t.passesDone = 0
			} else {
				t.passesDone++
				if t.passesDone >= t.innerPass && t.coldSize > 0 {
					t.inCold = true
				}
			}
		}
		remaining -= inLine
	}
}
