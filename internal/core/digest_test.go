package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/isa"
	"didt/internal/spec"
	"didt/internal/telemetry"
	"didt/internal/workload"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/loop_digest.golden from the current code")

const (
	loopDigestGolden = "testdata/loop_digest.golden"
	loopDigestCycles = 40_000
	loopDigestEvery  = 8192 // checkpoint interval, to localize a divergence
)

// loopCase is one closed-loop configuration the digest pins.
type loopCase struct {
	name      string
	prog      func() isa.Program
	opts      func() Options
	telemetry bool // attach an enabled tracer and digest its events too
}

// railsTopology is the rail-graph experiments' reference three-domain
// topology: core (functional units + uncore), mem (DL1) and fetch (IL1),
// with symmetric core<->mem and weaker core<->fetch coupling.
func railsTopology(s *spec.RunSpec) {
	s.PDN.Rails = []spec.RailSpec{
		{Name: "core", Scopes: []string{"fu", "uncore"}},
		{Name: "mem", Scopes: []string{"dl1"}},
		{Name: "fetch", Scopes: []string{"il1"}},
	}
	s.PDN.Coupling = []spec.CouplingSpec{
		{From: "core", To: "mem", K: 0.2},
		{From: "mem", To: "core", K: 0.2},
		{From: "core", To: "fetch", K: 0.1},
		{From: "fetch", To: "core", K: 0.1},
	}
}

func loopCases() []loopCase {
	stress := func() isa.Program {
		return workload.Stressmark(workload.StressmarkParams{Iterations: 400})
	}
	alt := func() isa.Program { return alternator(1500) }
	controlled := func(pct float64, mech string, delay int) func() Options {
		return func() Options {
			return knobs{ImpedancePct: pct, MaxCycles: loopDigestCycles, WarmupCycles: 5000,
				Control: true, Mechanism: mech, Delay: delay, NoiseMV: 2, Seed: 7}.options()
		}
	}
	with := func(base func() Options, edit func(*Options)) func() Options {
		return func() Options {
			o := base()
			edit(&o)
			return o
		}
	}
	dvs := func(o *Options) {
		o.Spec.Actuator.DVS = &spec.DVSSpec{TransitionCycles: 5, HoldCycles: 400}
	}
	openLoop := func(pct float64) func() Options {
		return func() Options {
			o := knobs{ImpedancePct: pct, MaxCycles: loopDigestCycles, WarmupCycles: 5000}.options()
			o.RecordTraces = true
			return o
		}
	}
	return []loopCase{
		{name: "legacy/fu-dl1@200", prog: stress, opts: controlled(2, actuator.FUDL1.Name, 2)},
		{name: "legacy/fu-dl1@400", prog: stress, opts: controlled(4, actuator.FUDL1.Name, 2)},
		{name: "legacy/fu+dvs@300", prog: alt, opts: with(controlled(3, actuator.FU.Name, 4), dvs)},
		{name: "legacy/gate-wide-fire-narrow@300", prog: stress, opts: with(controlled(3, actuator.FU.Name, 2), func(o *Options) {
			o.Responder = actuator.GateWideFireNarrow
		})},
		{name: "legacy/pessimistic-ramp", prog: alt, opts: with(openLoop(2), func(o *Options) {
			o.RecordTraces = false
			o.Spec.Control.PessimisticRamp = 40
		})},
		{name: "legacy/flush-recovery@300", prog: stress, opts: with(controlled(3, actuator.FUDL1.Name, 2), func(o *Options) {
			o.Spec.Control.FlushRecovery = true
		})},
		{name: "legacy/telemetry@200", prog: stress, opts: controlled(2, actuator.FUDL1IL1.Name, 1), telemetry: true},
		{name: "legacy/open-loop@200", prog: alt, opts: openLoop(2)},
		{name: "rails/open-loop@300", prog: alt, opts: with(openLoop(3), func(o *Options) { railsTopology(&o.Spec) })},
		{name: "rails/fu+dvs(core)@300", prog: alt, opts: with(controlled(3, actuator.FU.Name, 4), func(o *Options) {
			railsTopology(&o.Spec)
			dvs(o)
			o.Spec.Actuator.DVS.Rail = "core"
		})},
	}
}

func (d *digest) cycle(st CycleState) {
	d.word(st.Cycle)
	d.word(math.Float64bits(st.Current))
	d.word(math.Float64bits(st.Voltage))
	d.word(uint64(st.Level))
	for _, b := range [...]bool{st.Gating.FUs, st.Gating.DL1, st.Gating.IL1,
		st.Phantom.FUs, st.Phantom.DL1, st.Phantom.IL1, st.Done} {
		d.flag(b)
	}
}

type digest uint64

func (d *digest) word(w uint64) { *d = (*d ^ digest(w)) * 1099511628211 }

func (d *digest) flag(b bool) {
	if b {
		d.word(1)
	} else {
		d.word(0)
	}
}

// digestLoop runs one case and renders its golden record: per-cycle
// digest checkpoints, the final Result and every rail summary. A case
// that feeds the voltage back steps StepCycle exactly as Run does and
// digests each CycleState; an open-loop case takes Run's whole-trace path
// and digests its recorded per-cycle current and voltage.
func digestLoop(t *testing.T, c loopCase) string {
	t.Helper()
	opts := c.opts()
	var tr *telemetry.Tracer
	if c.telemetry {
		tr = telemetry.NewTracer(0)
		opts.Telemetry, opts.TelemetryName = tr, c.name
	}
	sys, err := NewSystem(c.prog(), opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	defer sys.Close()

	var b strings.Builder
	d := digest(14695981039346656037)
	checkpoint := func(n uint64) {
		if n%loopDigestEvery == 0 {
			fmt.Fprintf(&b, " %d:%016x", n, uint64(d))
		}
	}
	fmt.Fprintf(&b, "%s", c.name)
	var res *Result
	if sys.openLoop() {
		if res, err = sys.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range res.CurrentTrace {
			d.word(uint64(i))
			d.word(math.Float64bits(res.CurrentTrace[i]))
			d.word(math.Float64bits(res.VoltageTrace[i]))
			checkpoint(uint64(i) + 1)
		}
	} else {
		for sys.cycle < sys.spec.Budget.MaxCycles {
			st := sys.StepCycle()
			d.cycle(st)
			checkpoint(sys.cycle)
			if st.Done {
				break
			}
		}
		if err := sys.CPU.Err(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res = sys.finish(sys.CPU.Stats(), sys.Power.TotalEnergy())
	}
	fmt.Fprintf(&b, " end@%d:%016x\n", res.Cycles, uint64(d))

	for _, s := range tr.Streams() {
		var e digest = 14695981039346656037
		for _, ev := range s.Events() {
			e.word(ev.Cycle)
			e.word(uint64(ev.Kind))
			e.word(uint64(uint32(ev.Arg)))
			e.word(math.Float64bits(ev.Value))
		}
		fmt.Fprintf(&b, "\ttelemetry %s total=%d dropped=%d events=%016x\n", s.Name(), s.Total(), s.Dropped(), uint64(e))
	}

	h := digest(14695981039346656037)
	h.word(math.Float64bits(res.Hist.Lo))
	h.word(math.Float64bits(res.Hist.Hi))
	for _, n := range res.Hist.Counts {
		h.word(n)
	}
	fmt.Fprintf(&b, "\tstats=%+v\n", res.Stats)
	fmt.Fprintf(&b, "\tenergy=%016x avg=%016x i=[%016x %016x] v=[%016x %016x] vnom=%016x hist=%016x/%d\n",
		math.Float64bits(res.Energy), math.Float64bits(res.AvgPower),
		math.Float64bits(res.IMin), math.Float64bits(res.IMax),
		math.Float64bits(res.MinV), math.Float64bits(res.MaxV),
		math.Float64bits(res.VNominal), uint64(h), res.Hist.Total())
	fmt.Fprintf(&b, "\temerg=%d freq=%016x th=%s events=%d/%d dvs=%d/%d\n",
		res.Emergencies, math.Float64bits(res.EmergencyFreq), thresholdBits(res.Thresholds),
		res.LowEvents, res.HighEvents, res.DVSStepDowns, res.DVSStepUps)

	if len(res.Rails) == 0 {
		t.Fatalf("%s: result carries no rail summaries", c.name)
	}
	for _, r := range res.Rails {
		fmt.Fprintf(&b, "\trail %s i=[%016x %016x] v=[%016x %016x] emerg=%d freq=%016x th=%s\n",
			r.Name, math.Float64bits(r.IMin), math.Float64bits(r.IMax),
			math.Float64bits(r.MinV), math.Float64bits(r.MaxV),
			r.Emergencies, math.Float64bits(r.EmergencyFreq), thresholdBits(r.Thresholds))
	}
	return b.String()
}

func thresholdBits(th control.Thresholds) string {
	return fmt.Sprintf("[%016x %016x %t %016x]", math.Float64bits(th.Low), math.Float64bits(th.High),
		th.Stable, math.Float64bits(th.SafeWindow))
}

// TestLoopDigestGolden pins the whole closed loop — every cycle's
// CycleState (current, voltage, sensed level, actuation, completion), the
// final Result and every rail summary, bit for bit — across commits, on
// the single-rail configurations (controlled at 200% and 400%, DVS,
// a code-level responder, the pessimistic ramp, flush recovery, an
// enabled telemetry stream, open loop) and on the coupled three-rail
// topology (open loop, and controlled with DVS bound to the core rail).
// A change to core meant to be exact must pass without -update. After an
// intentional change, regenerate with
//
//	go test ./internal/core -run TestLoopDigestGolden -update
//
// and explain every changed line.
func TestLoopDigestGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range loopCases() {
		buf.WriteString(digestLoop(t, c))
	}
	got := buf.Bytes()
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(loopDigestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(loopDigestGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(loopDigestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, g, w)
			if shown++; shown == 10 {
				break
			}
		}
	}
	t.Fatalf("loop digest differs from %s", loopDigestGolden)
}
