package core

import (
	"reflect"
	"runtime"
	"testing"

	"didt/internal/telemetry"
)

// TestOpenLoopMatchesStreaming pins the fast-path contract: an
// uncontrolled run through the whole-trace convolution must match the
// same run forced onto the per-cycle streaming path (via an enabled
// tracer, which never changes results) exactly, voltages included.
func TestOpenLoopMatchesStreaming(t *testing.T) {
	k := knobs{ImpedancePct: 2, MaxCycles: 60000, WarmupCycles: 10000}

	fastSys, err := NewSystem(alternator(300), k.options())
	if err != nil {
		t.Fatal(err)
	}
	if !fastSys.openLoop() {
		t.Fatal("uncontrolled run did not select the open-loop path")
	}
	fast, err := fastSys.Run()
	if err != nil {
		t.Fatal(err)
	}

	opts := k.options()
	opts.Telemetry = telemetry.NewTracer(1 << 10)
	opts.TelemetryName = "stream"
	slowSys, err := NewSystem(alternator(300), opts)
	if err != nil {
		t.Fatal(err)
	}
	if slowSys.openLoop() {
		t.Fatal("traced run unexpectedly selected the open-loop path")
	}
	slow, err := slowSys.Run()
	if err != nil {
		t.Fatal(err)
	}

	if fast.Cycles != slow.Cycles || fast.Stats != slow.Stats {
		t.Fatalf("machine state diverged: %d/%+v vs %d/%+v",
			fast.Cycles, fast.Stats, slow.Cycles, slow.Stats)
	}
	if fast.Energy != slow.Energy {
		t.Fatalf("energy diverged: %g vs %g", fast.Energy, slow.Energy)
	}
	if fast.MinV != slow.MinV || fast.MaxV != slow.MaxV {
		t.Fatalf("voltage extremes diverged: [%g,%g] vs [%g,%g]",
			fast.MinV, fast.MaxV, slow.MinV, slow.MaxV)
	}
	if fast.Emergencies != slow.Emergencies {
		t.Fatalf("emergencies diverged: %d vs %d", fast.Emergencies, slow.Emergencies)
	}
	if !reflect.DeepEqual(fast.Hist, slow.Hist) {
		t.Fatalf("voltage histograms diverged: %+v vs %+v", fast.Hist, slow.Hist)
	}
}

// TestOpenLoopTraceCacheReuse checks that a keyed open-loop run is
// identical whether its machine trace is computed or served from the
// trace cache, and that the cache actually gets hit.
func TestOpenLoopTraceCacheReuse(t *testing.T) {
	ResetTraceCache()
	k := knobs{ImpedancePct: 2, MaxCycles: 50000, WarmupCycles: 10000}
	runKeyed := func(pct float64) *Result {
		kk := k
		kk.ImpedancePct = pct
		opts := kk.options()
		opts.ProgKey = "test:alternator300"
		sys, err := NewSystem(alternator(300), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := runKeyed(2)
	second := runKeyed(2) // same key: trace served from cache
	third := runKeyed(3)  // same trace, different network
	if st := TraceCacheStats(); st.Hits < 2 || st.Misses != 1 {
		t.Fatalf("trace cache not reused: %+v", st)
	}
	if first.MinV != second.MinV || first.MaxV != second.MaxV ||
		first.Cycles != second.Cycles || first.Energy != second.Energy {
		t.Fatalf("cached trace changed results: %+v vs %+v", first, second)
	}
	if third.MinV >= first.MinV {
		t.Fatalf("higher impedance should droop further: %g vs %g", third.MinV, first.MinV)
	}
}

// TestHugeBudgetShortRunBoundedMemory is the regression test for a run
// that reserved memory for its whole cycle budget before stepping: a
// 5e9-cycle budget (40 GB of float64 trace) on a program that retires in
// a few thousand cycles must complete, on one rail and on three, and
// allocate in proportion to the cycles it actually ran.
func TestHugeBudgetShortRunBoundedMemory(t *testing.T) {
	k := knobs{ImpedancePct: 2, MaxCycles: 5_000_000_000, WarmupCycles: 1000}
	for name, opts := range map[string]Options{"single-rail": k.options(), "three-rail": threeRailKnobs(k)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys, err := NewSystem(alternator(50), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sys.openLoop() {
			t.Fatalf("%s: uncontrolled run did not select the open-loop path", name)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sys.Close()
		runtime.ReadMemStats(&after)
		if res.Cycles >= k.MaxCycles {
			t.Fatalf("%s: program did not retire before the budget (%d cycles)", name, res.Cycles)
		}
		const limit = 64 << 20
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Errorf("%s: %d-cycle run allocated %d MB; want < %d MB", name, res.Cycles, grew>>20, limit>>20)
		}
	}
}
