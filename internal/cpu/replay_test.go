package cpu

import (
	"testing"

	"didt/internal/isa"
	"didt/internal/workload"
)

// TestQuietReplayMatchesStages runs each program twice under the same
// seeded gating, Mem-flag and Flush schedule: once as StepInto runs it,
// and once with the recorded quiet cycle discarded before every step, so
// every cycle runs the pipeline stages. Activity must agree every cycle,
// and Stats, Err and Done at the end. The schedule also flips the
// hierarchy's gating flags directly, bypassing SetGating.
func TestQuietReplayMatchesStages(t *testing.T) {
	progs := map[string]isa.Program{
		"stressmark": workload.Stressmark(workload.StressmarkParams{Iterations: 100}),
	}
	for _, name := range []string{"mcf", "swim", "facerec", "eon"} {
		p, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = workload.Generate(p)
	}
	for name, prog := range progs {
		fast, err := New(Config{}, prog)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(Config{}, prog)
		if err != nil {
			t.Fatal(err)
		}
		rng := uint64(len(name))
		next := func() uint64 { // xorshift64
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var g Gating
		replayed := 0
		for cyc := 0; cyc < 30_000; cyc++ {
			if next()%40 == 0 {
				g = Gating{FUs: next()%2 == 0, DL1: next()%2 == 0, IL1: next()%3 == 0}
			}
			flush := next()%700 == 0
			memDL1 := next()%900 == 0
			for _, c := range []*CPU{fast, ref} {
				c.SetGating(g)
				if memDL1 {
					c.Mem.DL1Gated = !c.Mem.DL1Gated
				}
				if flush {
					c.Flush(c.Config().BranchPenalty)
				}
			}
			if fast.cycle < fast.quiet.until {
				replayed++
			}
			ref.quiet.until = 0
			var a, b Activity
			doneA, doneB := fast.StepInto(&a), ref.StepInto(&b)
			if a != b || doneA != doneB {
				t.Fatalf("%s cycle %d: replayed core\n  %+v done=%v\nstages\n  %+v done=%v", name, cyc, a, doneA, b, doneB)
			}
			if doneA {
				break
			}
		}
		if fast.Stats() != ref.Stats() || fast.Err() != nil || ref.Err() != nil {
			t.Fatalf("%s: stats %+v vs %+v, errs %v %v", name, fast.Stats(), ref.Stats(), fast.Err(), ref.Err())
		}
		if replayed == 0 {
			t.Errorf("%s: no cycle was replayed; the test exercised nothing", name)
		}
		t.Logf("%s: %d cycles, %d replayed", name, fast.Stats().Cycles, replayed)
	}
}
