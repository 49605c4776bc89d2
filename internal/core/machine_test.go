package core

import (
	"testing"

	"didt/internal/actuator"
	"didt/internal/cpu"
	"didt/internal/power"
	"didt/internal/spec"
	"didt/internal/workload"
)

// controlledSystem builds a controlled run of a named workload, applies
// any spec edits, and resolves its spec the way the CLIs and the server do.
func controlledSystem(tb testing.TB, name, mechanism string, impedance float64, delay int, cycles uint64, edits ...func(*spec.RunSpec)) *System {
	tb.Helper()
	var sp spec.RunSpec
	sp.Workload.Name = name
	sp.PDN.ImpedancePct = impedance
	sp.Control.Enabled = true
	sp.Actuator.Mechanism = mechanism
	sp.Sensor.DelayCycles = delay
	sp.Budget.MaxCycles = cycles
	sp.Budget.WarmupCycles = cycles / 5
	for _, edit := range edits {
		edit(&sp)
	}
	r, err := sp.Resolve()
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := r.Program()
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := NewSystem(prog, Options{Spec: r})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	return sys
}

// warmMachine is a controlled, memory-bound SPEC run (facerec, FU/DL1
// actuation, 200% impedance) stepped far enough that every slice in the
// core has reached its working size. It stalls on memory, so its cycles
// include the core's quiet-cycle replay and the power model's memo hits.
// Spec edits (a rails section, say) apply before resolution.
func warmMachine(tb testing.TB, edits ...func(*spec.RunSpec)) *System {
	tb.Helper()
	sys := controlledSystem(tb, "facerec", actuator.FUDL1.Name, 2, 2, 1<<62, edits...)
	for i := 0; i < 50_000; i++ {
		sys.StepCycle()
	}
	if err := sys.CPU.Err(); err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestMachineZeroAlloc pins the machine half of the closed loop, and the
// whole controlled cycle around it, at zero allocations per cycle once
// warm — on the implicit whole-chip rail and on the coupled three-rail
// topology. The ci.sh allocation gate runs the matching benchmarks.
func TestMachineZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edits []func(*spec.RunSpec)
	}{
		{name: "one rail"},
		{name: "three rails", edits: []func(*spec.RunSpec){railsTopology}},
	} {
		sys := warmMachine(t, tc.edits...)
		var act cpu.Activity
		if a := testing.AllocsPerRun(2000, func() { sys.CPU.StepInto(&act) }); a != 0 {
			t.Errorf("%s: cpu.StepInto: %v allocs per cycle, want 0", tc.name, a)
		}
		if a := testing.AllocsPerRun(2000, func() { sys.Power.Step(&act, sys.phantom) }); a != 0 {
			t.Errorf("%s: power.Step: %v allocs per cycle, want 0", tc.name, a)
		}
		if a := testing.AllocsPerRun(2000, func() { sys.StepCycle() }); a != 0 {
			t.Errorf("%s: System.StepCycle: %v allocs per cycle, want 0", tc.name, a)
		}
	}
}

// BenchmarkStepInto times the warm core alone, under the gating the
// controller left in place.
func BenchmarkStepInto(b *testing.B) {
	sys := warmMachine(b)
	var act cpu.Activity
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.CPU.StepInto(&act)
	}
}

// BenchmarkPowerStep times the power model alone, replaying the activity
// and phantom requests of 4096 recorded controlled cycles.
func BenchmarkPowerStep(b *testing.B) {
	sys := warmMachine(b)
	acts := make([]cpu.Activity, 4096)
	phs := make([]power.Phantom, len(acts))
	for i := range acts {
		phs[i] = sys.phantom
		sys.StepCycle()
		acts[i] = sys.act
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(acts)
		sys.Power.Step(&acts[k], phs[k])
	}
}

// BenchmarkStepCycle times the whole warm controlled cycle.
func BenchmarkStepCycle(b *testing.B) {
	sys := warmMachine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.StepCycle()
	}
}

// TestStableThresholdsHaveNoEmergencies checks the paper's guarantee as a
// property: wherever the threshold solver reports Stable thresholds, the
// controlled run has no voltage emergencies. It covers the stressmark and
// the paper's eight most voltage-variable profiles, every gating
// mechanism and sensor delays 0, 2 and 4, at 200% impedance (where the
// stressmark has emergencies uncontrolled) and 400% (where every profile
// but gcc does, and FU-only actuation loses stability). A violation is a
// finding about the solver or the model, not a tolerance to tune.
func TestStableThresholdsHaveNoEmergencies(t *testing.T) {
	names := append([]string{"stressmark"}, workload.ChallengingEight()...)
	mechanisms := []string{actuator.FU.Name, actuator.FUDL1.Name, actuator.FUDL1IL1.Name}
	var runs, stable int
	for _, z := range []float64{2, 4} {
		for _, name := range names {
			for _, mech := range mechanisms {
				for _, delay := range []int{0, 2, 4} {
					res, err := controlledSystem(t, name, mech, z, delay, 20_000).Run()
					if err != nil {
						t.Fatalf("%s %s delay %d at %.0f%%: %v", name, mech, delay, 100*z, err)
					}
					runs++
					if !res.Thresholds.Stable {
						continue
					}
					stable++
					if res.Emergencies != 0 {
						t.Errorf("%s %s delay %d at %.0f%%: %d emergencies under Stable thresholds %+v (minV %.4f, maxV %.4f)",
							name, mech, delay, 100*z, res.Emergencies, res.Thresholds, res.MinV, res.MaxV)
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d with Stable thresholds", runs, stable)
	if stable == 0 {
		t.Fatal("no point had Stable thresholds; the property was never exercised")
	}
}
