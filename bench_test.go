package didt

// Benchmark harness: one testing.B benchmark per paper table and figure.
// Each benchmark regenerates its artifact through the experiment harness
// with the reduced Quick configuration so `go test -bench=.` completes in
// minutes; run cmd/experiments with the default configuration for the
// full-size regeneration recorded in EXPERIMENTS.md.
//
// Shared studies are memoized inside the experiments package, so for the
// heavyweight sweeps (table2, fig14-17, stressmark-actuation) the FIRST
// iteration pays the full simulation cost and subsequent iterations
// measure only result rendering; single-iteration numbers (b.N == 1) are
// the honest end-to-end cost.

import (
	"context"
	"io"
	"testing"

	"didt/internal/core"
	"didt/internal/experiments"
	"didt/internal/pdn"
	"didt/internal/telemetry"
	"didt/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Quick()
	reg := experiments.Registry()
	runner, ok := reg[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 regenerates the ITRS impedance-trend figure.
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2 regenerates the second-order frequency/step responses.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates the narrow-spike response.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates the wide-spike response.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates the notched-spike response.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates the resonant pulse-train response.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig9 regenerates the stressmark-vs-worst-case comparison.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkTable2 regenerates the voltage-emergency sweep.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig10 regenerates the voltage distributions.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates the controller-in-action trace.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkTable3 regenerates the thresholds-under-delay table.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig14 regenerates the sensor-delay performance study.
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15 regenerates the sensor-delay energy study.
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16 regenerates the sensor-error study.
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17 regenerates the actuator-granularity performance study.
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkFig18 regenerates the actuator-granularity energy study.
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }

// BenchmarkStressmarkActuation regenerates the Section 5.2/5.3 stressmark
// numbers.
func BenchmarkStressmarkActuation(b *testing.B) { benchExperiment(b, "stressmark-actuation") }

// --------------------------------------------------------------------------
// Component micro-benchmarks: the substrate costs a downstream user cares
// about (simulation throughput, solver latency).

// BenchmarkCoupledCycles measures end-to-end coupled-simulation throughput
// in cycles per second (stressmark, uncontrolled, 200% impedance).
func BenchmarkCoupledCycles(b *testing.B) {
	prog := Stressmark(StressmarkParams{Iterations: 1 << 30})
	var sp RunSpec
	sp.PDN.ImpedancePct = 2
	sp.Budget.MaxCycles = 1 << 62
	sys, err := NewSystem(prog, Options{Spec: sp})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.StepCycle()
	}
}

// BenchmarkControlledCycles measures coupled throughput with the threshold
// controller in the loop.
func BenchmarkControlledCycles(b *testing.B) {
	prog := Stressmark(StressmarkParams{Iterations: 1 << 30})
	var sp RunSpec
	sp.PDN.ImpedancePct = 2
	sp.Control.Enabled = true
	sp.Sensor.DelayCycles = 2
	sp.Budget.MaxCycles = 1 << 62
	sys, err := NewSystem(prog, Options{Spec: sp})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.StepCycle()
	}
}

// BenchmarkControlledSPECCycles is BenchmarkControlledCycles on a
// memory-bound SPEC profile (facerec, FU/DL1 actuation, 200% impedance).
// The stressmark never stalls on memory, so only a workload like this one
// exercises the core's quiet-cycle replay and the power model's memo.
func BenchmarkControlledSPECCycles(b *testing.B) {
	prog, err := Benchmark("facerec", 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	var sp RunSpec
	sp.PDN.ImpedancePct = 2
	sp.Control.Enabled = true
	sp.Actuator.Mechanism = FUDL1.Name
	sp.Sensor.DelayCycles = 2
	sp.Budget.MaxCycles = 1 << 62
	sys, err := NewSystem(prog, Options{Spec: sp})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.StepCycle()
	}
}

// BenchmarkTelemetryOff measures coupled throughput with a tracer attached
// but disabled — the configuration every production sweep runs in. The
// observability contract is that this stays within 2% of
// BenchmarkCoupledCycles: the per-cycle cost of disabled telemetry is one
// pointer test plus one atomic load.
func BenchmarkTelemetryOff(b *testing.B) {
	tracer := NewTracer(0)
	tracer.SetEnabled(false)
	prog := Stressmark(StressmarkParams{Iterations: 1 << 30})
	var sp RunSpec
	sp.PDN.ImpedancePct = 2
	sp.Budget.MaxCycles = 1 << 62
	sys, err := NewSystem(prog, Options{
		Spec: sp, Telemetry: tracer, TelemetryName: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.StepCycle()
	}
}

// BenchmarkTelemetryOn measures coupled throughput with cycle tracing
// live, bounding the cost of a fully-instrumented run.
func BenchmarkTelemetryOn(b *testing.B) {
	tracer := NewTracer(0)
	prog := Stressmark(StressmarkParams{Iterations: 1 << 30})
	var sp RunSpec
	sp.PDN.ImpedancePct = 2
	sp.Budget.MaxCycles = 1 << 62
	sys, err := NewSystem(prog, Options{
		Spec: sp, Telemetry: tracer, TelemetryName: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.StepCycle()
	}
}

// --------------------------------------------------------- sweep engine

// sweepBenchConfig is a reduced multi-experiment sweep: large enough that
// the worker pool has real work to distribute, small enough for -bench
// runs to finish quickly.
func sweepBenchConfig(parallel int) experiments.Config {
	cfg := experiments.Quick()
	cfg.Cycles = 30_000
	cfg.Warmup = 10_000
	cfg.Iterations = 300
	cfg.StressIter = 250
	cfg.Benchmarks = []string{"swim", "gcc"}
	cfg.Parallel = parallel
	return cfg
}

func benchSweep(b *testing.B, parallel int) {
	b.Helper()
	ids := []string{"table2", "fig14", "stressmark-actuation", "ablation-window"}
	reg := experiments.Registry()
	cfg := sweepBenchConfig(parallel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reset every memo so each iteration pays the full simulation
		// cost; otherwise iterations after the first measure rendering.
		experiments.ResetMemo()
		experiments.ResetRunCache()
		workload.ResetProgramCache()
		pdn.ResetKernelCache()
		core.ResetEnvelopeCache()
		for _, id := range ids {
			if err := reg[id](cfg, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepSerial runs the sweep-heavy experiment set on one worker.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same set with one worker per core;
// output is byte-identical to the serial run (see internal/experiments
// TestParallelOutputIdentical).
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkSpansOff runs the parallel sweep with a span tracer threaded
// through the request context but disabled — exactly how didtd executes
// when -spans=false, and the hot path every enabled-but-not-sampling
// request takes inside sim.Map. The observability contract is that this
// stays within 2% of BenchmarkSweepParallel: a disabled tracer costs one
// pointer test per job dispatch, nothing more.
func BenchmarkSpansOff(b *testing.B) {
	tracer := telemetry.NewTracer(0)
	tracer.SetEnabled(false)
	ctx := telemetry.ContextWithTracer(context.Background(), tracer)
	ids := []string{"table2", "fig14", "stressmark-actuation", "ablation-window"}
	reg := experiments.Registry()
	cfg := sweepBenchConfig(0)
	cfg.Ctx = ctx
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ResetMemo()
		experiments.ResetRunCache()
		workload.ResetProgramCache()
		pdn.ResetKernelCache()
		core.ResetEnvelopeCache()
		for _, id := range ids {
			if err := reg[id](cfg, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}
