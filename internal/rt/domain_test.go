package rt

import (
	"testing"
)

// TestStagingSameTileScopesDisjoint: two workers on one tile hold
// exclusive scopes on two different objects at the same time. Both are
// served by the same staging memory, so their staged copies must not
// overlap: every in-scope read and every canonical word afterwards is its
// own object's value.
func TestStagingSameTileScopesDisjoint(t *testing.T) {
	for _, name := range []string{"spm", "cspm"} {
		t.Run(name, func(t *testing.T) {
			b, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			r := New(testSys(t, 2), b)
			a := r.Alloc("A", 16)
			bo := r.Alloc("B", 16)
			var gotA, gotB uint32
			r.Spawn(0, "wa", func(c *Ctx) {
				c.EntryX(a)
				c.Write32(a, 0, 111)
				c.Compute(2000) // wb stages and writes B meanwhile
				gotA = c.Read32(a, 0)
				c.ExitX(a)
			})
			r.Spawn(0, "wb", func(c *Ctx) {
				c.Compute(200) // enter after wa staged A
				c.EntryX(bo)
				c.Write32(bo, 0, 222)
				gotB = c.Read32(bo, 0)
				c.Compute(4000) // exit after wa closed A
				c.ExitX(bo)
			})
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if gotA != 111 || gotB != 222 {
				t.Fatalf("in-scope reads A=%d B=%d, want 111 and 222", gotA, gotB)
			}
			if ca, cb := r.ReadObjectWord(a, 0), r.ReadObjectWord(bo, 0); ca != 111 || cb != 222 {
				t.Fatalf("canonical words A=%d B=%d, want 111 and 222", ca, cb)
			}
		})
	}
}

// TestRecorderStagingSameInBothDomains: the recorder models a staging
// backend by its copies, whichever memory domain it stages into. The same
// read-only scope program must record the identical model-operation
// sequence under spm and cspm: copy-in reads at entry, the early release
// of entry_ro's copy lock, copy-back writes at exit.
func TestRecorderStagingSameInBothDomains(t *testing.T) {
	record := func(t *testing.T, name string) []string {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := New(testSys(t, 4), b)
		rec := NewRecorder(r)
		x := r.Alloc("X", 8)
		done := r.NewBarrier(2)
		r.Spawn(0, "writer", func(c *Ctx) {
			c.EntryX(x)
			c.Write32(x, 0, 7)
			c.Write32(x, 4, 9)
			c.ExitX(x)
			done.Wait(c)
		})
		r.Spawn(1, "reader", func(c *Ctx) {
			done.Wait(c)
			c.EntryRO(x)
			c.Read32(x, 0)
			c.Read32(x, 4)
			c.ExitRO(x)
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		var ops []string
		for _, op := range rec.Exec.Ops() {
			ops = append(ops, op.String())
		}
		return ops
	}
	spm := record(t, "spm")
	cspm := record(t, "cspm")
	if len(spm) != len(cspm) {
		t.Fatalf("spm recorded %d model ops, cspm %d:\nspm  %v\ncspm %v", len(spm), len(cspm), spm, cspm)
	}
	for i := range spm {
		if spm[i] != cspm[i] {
			t.Fatalf("op %d: spm %s, cspm %s", i, spm[i], cspm[i])
		}
	}
}
