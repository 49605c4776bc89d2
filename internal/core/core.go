// Package core couples every substrate into the paper's closed loop
// (Figure 7 plus the controller of Sections 4-5): each cycle the
// out-of-order core produces structural activity, the power model turns it
// into current, the PDN convolution turns current into supply voltage, the
// threshold sensor classifies the (delayed, noisy) voltage, and the
// actuator's response gates or phantom-fires the controlled units on the
// next cycle.
//
// This package is the paper's primary contribution in executable form: a
// microarchitectural dI/dt controller with solver-derived thresholds that
// bound supply excursions, coupled to a cycle-accurate machine.
package core

import (
	"fmt"
	"math"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sensor"
	"didt/internal/spec"
	"didt/internal/stats"
	"didt/internal/telemetry"
	"didt/internal/trace"
)

// Options assembles a system: the serializable spec describing the run,
// plus the few runtime-only attachments (a code-level responder override,
// trace recording, a telemetry sink) that cannot live in configuration
// data. Zero spec fields take paper defaults; see spec.RunSpec.
type Options struct {
	// Spec is the complete run description — PDN, CPU, power model,
	// sensor, controller, actuator, budgets and seed. NewSystem resolves
	// it through spec.WithDefaults, so sparse specs work.
	Spec spec.RunSpec

	// Responder overrides the spec's named mechanism with an arbitrary
	// actuation policy (e.g. actuator.Asymmetric, the paper's Section 6
	// proposal). Responders are code, so they attach here rather than in
	// the serializable spec.
	Responder actuator.Responder

	RecordTraces bool // keep per-cycle current/voltage traces

	// Telemetry, when non-nil, receives typed per-cycle events (sensor
	// transitions, actuation engage/release, emergencies, voltage and
	// current samples) on a stream named TelemetryName. A nil tracer — or
	// a disabled one — costs one pointer test and one atomic load per
	// cycle, so the hot path is unchanged when observability is off.
	Telemetry     *telemetry.Tracer
	TelemetryName string

	// ProgKey, when non-empty, is a stable identity for the program
	// (typically a fingerprint of its generation parameters). It enables
	// the machine-trace cache on the open-loop fast path: runs that share
	// program, CPU and power configuration reuse one cycle-accurate
	// current trace and re-convolve it per PDN. Empty disables that cache
	// — results are identical either way.
	ProgKey string
}

// Result summarizes one run.
type Result struct {
	Stats    cpu.Stats
	Cycles   uint64
	Energy   float64 // joules
	AvgPower float64 // watts

	IMin, IMax float64 // calibration envelope (amperes)
	MinV, MaxV float64 // observed after warmup
	VNominal   float64

	Emergencies   uint64  // post-warmup cycles outside the +-5% band
	EmergencyFreq float64 // Emergencies / measured cycles

	Hist *stats.Histogram // post-warmup voltage distribution

	Thresholds control.Thresholds
	LowEvents  uint64 // distinct gating actuations
	HighEvents uint64 // distinct phantom actuations

	// Rails carries one summary per delivery rail, in spec order; a spec
	// without a rails section reports its one implicit whole-chip rail,
	// "chip". The top-level MinV/MaxV are the worst across rails,
	// Emergencies counts cycles where any rail left its band, and
	// Thresholds/VNominal describe rail 0.
	Rails []RailResult

	// DVS schedule activity, when the spec carries a DVS section.
	DVSStepDowns uint64
	DVSStepUps   uint64

	CurrentTrace trace.Trace // populated when Options.RecordTraces
	VoltageTrace trace.Trace
}

// IPC is a convenience accessor.
func (r *Result) IPC() float64 { return r.Stats.IPC() }

// System is one assembled closed loop. Create with NewSystem; not safe for
// concurrent use.
type System struct {
	opts Options
	spec spec.RunSpec // resolved (WithDefaults applied)

	CPU   *cpu.CPU
	Power *power.Model
	// Net, Sim and Sensor are rail 0's network, streaming simulator and
	// sensor (nil when rail 0 is not sensed) — the whole chip's on a spec
	// without a rails section.
	Net    *pdn.Network
	Sim    *pdn.Simulator
	Sensor *sensor.Sensor

	policy    control.Policy
	responder actuator.Responder
	counting  *actuator.Counting

	// Telemetry stream plus the previous-cycle states whose transitions
	// become events.
	stream      *telemetry.Stream
	lastLevel   sensor.Level
	gateActive  bool
	phantomOn   bool
	emergActive bool

	gating  cpu.Gating
	phantom power.Phantom
	act     cpu.Activity // per-cycle scratch for StepCycle (avoids a fresh zeroed copy per cycle)

	quietStreak uint64 // consecutive no-issue cycles (pessimistic ramp)
	rampLeft    int

	cycle  uint64
	emerg  uint64 // post-warmup cycles in which any rail left its band
	hist   *stats.Histogram
	curTr  trace.Trace
	voltTr trace.Trace
	iMin   float64
	iMax   float64

	// The delivery rails (see rails.go) and their per-cycle scratch.
	graph    *pdn.Graph
	gsim     *pdn.GraphSimulator
	rails    []railState
	railOf   [power.NumScopes]int // delivery scope -> owning rail index
	scopeCur []float64            // current by scope
	railCur  []float64            // current by rail
	railVolt []float64            // voltage by rail

	// dvs, when non-nil, scales the machine's current draw by the
	// schedule's operating point; the loop advances it from rail dvsRail's
	// sensed level, or from the aggregate level when dvsRail is -1.
	dvs     *actuator.DVS
	dvsRail int
}

// NewSystem builds the coupled system for a program. Each rail's PDN is
// calibrated so that the theoretical worst-case current waveform exactly
// reaches the emergency boundary at 100% target impedance, then scaled by
// its impedance; controller thresholds are solved per rail for the
// configured delay and actuator authority, with noise guard-banding
// applied.
func NewSystem(prog isa.Program, opts Options) (*System, error) {
	sp := opts.Spec.WithDefaults()
	if len(sp.PDN.Rails) > 1 && opts.Responder != nil {
		return nil, fmt.Errorf("core: multi-rail specs do not support code-level responder overrides; use the actuator spec")
	}
	c, err := cpu.New(sp.CPU, prog)
	if err != nil {
		return nil, err
	}
	s := &System{
		opts:  opts,
		spec:  sp,
		CPU:   c,
		Power: power.New(sp.Power, c.Config()),
		hist:  stats.NewHistogram(0.90, 1.10, 200),
	}
	if err := s.buildRails(); err != nil {
		return nil, err
	}
	s.stream = opts.Telemetry.Stream(opts.TelemetryName)

	var mech actuator.Mechanism
	s.responder = opts.Responder
	if s.responder == nil {
		if mech, err = sp.Mechanism(); err != nil {
			return nil, err
		}
		s.responder = mech
	}
	s.dvsRail = -1
	if d := sp.Actuator.DVS; d != nil {
		// DVS composes around whatever responder is in place; the loop
		// itself advances the schedule (see observe).
		s.dvs = actuator.NewDVS(s.responder, d.Steps, d.TransitionCycles, d.HoldCycles, d.CurrentExponent)
		s.responder = s.dvs
		for i := range s.rails {
			if s.rails[i].name == d.Rail {
				s.dvsRail = i
			}
		}
	}
	if sp.Control.Enabled {
		// The counting wrapper feeds actuation tallies into the metrics
		// registry at the end of the run; one plain increment per cycle.
		s.counting = &actuator.Counting{R: s.responder}
		s.responder = s.counting
		if err := s.solveThresholds(mech); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Thresholds returns rail 0's solved (and guard-banded) thresholds; zero
// value when control is disabled.
func (s *System) Thresholds() control.Thresholds { return s.rails[0].th }

// Close releases the PDN simulators. The system must not be stepped
// afterwards; Close is optional.
func (s *System) Close() {
	if s.gsim != nil {
		s.gsim.Release() // includes rail 0, which s.Sim aliases
	}
	s.gsim, s.Sim = nil, nil
}

// Envelope returns the calibration current envelope.
func (s *System) Envelope() (iMin, iMax float64) { return s.iMin, s.iMax }

// Spec returns the resolved run spec the system was built from. Its Key()
// identifies the configuration in manifests and server responses.
func (s *System) Spec() spec.RunSpec { return s.spec }

// CycleState reports one cycle for trace-level consumers (Figure 11).
type CycleState struct {
	Cycle   uint64
	Current float64
	Voltage float64
	Level   sensor.Level
	Gating  cpu.Gating
	Phantom power.Phantom
	Done    bool
}

// StepCycle advances the loop one cycle: the machine step, one step of
// the rail graph, then the observation of every rail's voltage.
//
//didt:hotpath
func (s *System) StepCycle() CycleState {
	total, done := s.machineStep(&s.act, s.railCur)
	s.gsim.Step(s.railCur, s.railVolt)
	return s.observe(&s.act, total, done)
}

// machineStep advances the machine half of the loop — actuator gating into
// the core, core activity into the power model — fills railCur with each
// rail's load current (scaled by the DVS operating point when one is
// active) and returns the whole chip's current and the completion flag.
// Everything downstream of the voltage lives in observe.
//
//didt:hotpath
func (s *System) machineStep(act *cpu.Activity, railCur []float64) (float64, bool) {
	s.CPU.SetGating(s.gating)
	done := s.CPU.StepInto(act)
	rep := s.Power.Step(act, s.phantom)
	scale := 1.0
	if s.dvs != nil {
		scale = s.dvs.CurrentScale()
	}
	total := rep.Current * scale
	if len(railCur) == 1 {
		// The only rail owns every scope and draws the chip's current as
		// the power model summed it; a per-scope re-sum would round
		// differently.
		railCur[0] = total
		return total, done
	}
	s.Power.ScopeCurrents(&rep, s.scopeCur)
	for i := range railCur {
		railCur[i] = 0
	}
	for sc, c := range s.scopeCur {
		railCur[s.railOf[sc]] += c
	}
	for i := range railCur {
		railCur[i] *= scale
	}
	return total, done
}

// observe ingests this cycle's rail voltages (s.railVolt): statistics,
// traces, per-rail sensing and the aggregate control decision (any rail
// low gates, else any rail high phantom-fires), the DVS schedule, the
// pessimistic ramp, telemetry, and the cycle counter. Exactly the
// post-convolution half of StepCycle.
//
//didt:hotpath
func (s *System) observe(act *cpu.Activity, total float64, done bool) CycleState {
	if s.cycle >= s.spec.Budget.WarmupCycles {
		s.tally()
	}
	v := s.railVolt[0]
	if s.opts.RecordTraces {
		s.curTr = append(s.curTr, total) //didt:allow hotpath -- trace recording is a debug mode; steady-state sweeps never enter this branch
		s.voltTr = append(s.voltTr, v)   //didt:allow hotpath -- trace recording is a debug mode; steady-state sweeps never enter this branch
	}

	level := sensor.Normal
	if s.spec.Control.Enabled {
		anyLow, anyHigh := false, false
		for i := range s.rails {
			r := &s.rails[i]
			if r.sensor == nil {
				r.level = sensor.Normal
				continue
			}
			r.level = r.sensor.Sense(s.railVolt[i])
			if r.level == sensor.Low {
				anyLow = true
			} else if r.level == sensor.High {
				anyHigh = true
			}
		}
		// Undervolt wins: gating beats phantom firing when rails disagree.
		if anyLow {
			level = sensor.Low
		} else if anyHigh {
			level = sensor.High
		}
		if s.dvs != nil {
			drive := level
			if s.dvsRail >= 0 {
				drive = s.rails[s.dvsRail].level
			}
			s.dvs.Observe(drive)
		}
		lowBefore := s.policy.LowEvents
		gate, phantom := s.policy.Update(anyLow, anyHigh)
		g, p := s.responder.Respond(level)
		if !gate {
			g = cpu.Gating{}
		}
		if !phantom {
			p = power.Phantom{}
		}
		s.gating, s.phantom = g, p
		if s.spec.Control.FlushRecovery && s.policy.LowEvents > lowBefore {
			s.CPU.Flush(s.CPU.Config().BranchPenalty)
		}
	}

	// Pessimistic ramp policy (Section 2.3's alternative to the greedy
	// default): after a quiet spell, restart execution at half rate. The
	// ramp's gating is recomputed every cycle on top of the controller's
	// decision (or from scratch when no controller runs).
	if s.spec.Control.PessimisticRamp > 0 {
		if !s.spec.Control.Enabled {
			s.gating = cpu.Gating{}
		}
		if act.Issued == 0 {
			s.quietStreak++
		} else {
			if s.quietStreak >= 8 {
				s.rampLeft = s.spec.Control.PessimisticRamp
			}
			s.quietStreak = 0
		}
		if s.rampLeft > 0 {
			s.rampLeft--
			if s.cycle%2 == 0 {
				s.gating.FUs = true
			}
		}
	}

	if s.stream.Enabled() {
		// Telemetry narrates rail 0 (the whole chip on a spec without a
		// rails section); per-rail streams are future work.
		s.emitCycle(total, v, level)
	}

	st := CycleState{
		Cycle:   s.cycle,
		Current: total,
		Voltage: v,
		Level:   level,
		Gating:  s.gating,
		Phantom: s.phantom,
		Done:    done,
	}
	s.cycle++
	return st
}

// tally folds one post-warmup cycle's rail voltages (s.railVolt) into the
// per-rail statistics, the voltage histogram and the aggregate emergency
// count (finish takes the aggregate extremes from the rails').
//
//didt:hotpath
func (s *System) tally() {
	anyEmerg := false
	for i := range s.rails {
		r := &s.rails[i]
		v := s.railVolt[i]
		if v < r.minV {
			r.minV = v
		}
		if v > r.maxV {
			r.maxV = v
		}
		if v < r.vmin || v > r.vmax {
			r.emerg++
			anyEmerg = true
		}
		s.hist.Add(v)
	}
	if anyEmerg {
		s.emerg++
	}
}

// emitCycle records this cycle's telemetry: per-cycle voltage and current
// samples plus transition events for the sensor level, actuation state and
// emergency state. StepCycle only calls it when the stream is enabled; the
// guard below re-establishes that dominance locally so the telemetryguard
// analyzer can prove every Emit is reached enabled-only without
// cross-function reasoning.
//
//didt:hotpath
func (s *System) emitCycle(current, v float64, level sensor.Level) {
	if !s.stream.Enabled() {
		return
	}
	c := s.cycle
	s.stream.Emit(c, telemetry.KindVoltage, 0, v)
	s.stream.Emit(c, telemetry.KindCurrent, 0, current)
	if level != s.lastLevel {
		s.stream.Emit(c, telemetry.KindSensorLevel, int32(level), v)
		s.lastLevel = level
	}
	if gate := s.gating.FUs || s.gating.DL1 || s.gating.IL1; gate != s.gateActive {
		s.stream.Emit(c, telemetry.KindGate, boolArg(gate), v)
		s.gateActive = gate
	}
	if ph := s.phantom.FUs || s.phantom.DL1 || s.phantom.IL1; ph != s.phantomOn {
		s.stream.Emit(c, telemetry.KindPhantom, boolArg(ph), v)
		s.phantomOn = ph
	}
	if emerg := v < s.rails[0].vmin || v > s.rails[0].vmax; emerg != s.emergActive {
		s.stream.Emit(c, telemetry.KindEmergency, boolArg(emerg), v)
		s.emergActive = emerg
	}
}

func boolArg(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Run advances the loop until the program retires or MaxCycles elapse and
// returns the aggregated result.
//
// Open-loop runs — no controller, no pessimistic ramp, no responder, no
// enabled telemetry stream — have a machine whose evolution cannot depend
// on the voltage, so Run computes every rail's whole current trace first
// (reusing cached traces when the program is keyed) and convolves them in
// one pass with Graph.ConvolveVoltages. That pass runs the same recurrence
// as the streaming simulators, so its voltages are bit-identical; anything that
// feeds the voltage back (control, ramp, telemetry) steps cycle by cycle.
func (s *System) Run() (*Result, error) {
	if s.openLoop() {
		return s.runOpenLoop()
	}
	for s.cycle < s.spec.Budget.MaxCycles {
		st := s.StepCycle()
		if st.Done {
			break
		}
	}
	if err := s.CPU.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.finish(s.CPU.Stats(), s.Power.TotalEnergy()), nil
}

// openLoop reports whether nothing in this run feeds the computed voltage
// back into the machine: the controller is off (no sensing, no actuation),
// the pessimistic ramp is off (its gating feeds the next machine cycle),
// no code-level responder is attached, and the telemetry stream is
// disabled (per-cycle emission is interleaved with stepping).
func (s *System) openLoop() bool {
	return !s.spec.Control.Enabled &&
		s.spec.Control.PessimisticRamp == 0 &&
		s.opts.Responder == nil &&
		!s.stream.Enabled()
}

// finish aggregates the run's statistics into a Result and publishes the
// whole-run metrics. Both completion paths — streaming and open-loop —
// funnel through here.
func (s *System) finish(st cpu.Stats, energy float64) *Result {
	measured := uint64(0)
	if s.cycle > s.spec.Budget.WarmupCycles {
		measured = s.cycle - s.spec.Budget.WarmupCycles
	}
	r := &Result{
		Stats:        st,
		Cycles:       s.cycle,
		Energy:       energy,
		IMin:         s.iMin,
		IMax:         s.iMax,
		MinV:         math.Inf(1),
		MaxV:         math.Inf(-1),
		VNominal:     s.Net.Params().VNominal,
		Emergencies:  s.emerg,
		Hist:         s.hist,
		Thresholds:   s.rails[0].th,
		LowEvents:    s.policy.LowEvents,
		HighEvents:   s.policy.HighEvents,
		CurrentTrace: s.curTr,
		VoltageTrace: s.voltTr,
	}
	if measured > 0 {
		r.EmergencyFreq = float64(s.emerg) / float64(measured)
	}
	r.Rails = s.railResults()
	for _, rr := range r.Rails {
		r.MinV = min(r.MinV, rr.MinV)
		r.MaxV = max(r.MaxV, rr.MaxV)
	}
	if s.dvs != nil {
		r.DVSStepDowns, r.DVSStepUps = s.dvs.StepDowns, s.dvs.StepUps
	}
	if s.cycle > 0 {
		r.AvgPower = r.Energy / (float64(s.cycle) / s.Power.Params().ClockHz)
	}
	s.publishMetrics(r)
	return r
}

// publishMetrics folds the finished run into the process-wide metrics
// registry: whole-run aggregates only (a handful of atomic adds per run,
// never per cycle), so the simulation hot path is untouched.
func (s *System) publishMetrics(r *Result) {
	reg := telemetry.Default()
	reg.Counter("core.runs_total").Inc()
	reg.Counter("core.cycles_total").Add(int64(s.cycle))
	reg.Counter("core.emergencies_total").Add(int64(s.emerg))
	reg.Counter("core.gating_episodes_total").Add(int64(s.policy.LowEvents))
	reg.Counter("core.phantom_episodes_total").Add(int64(s.policy.HighEvents))
	reg.Counter("cpu.instructions_total").Add(int64(r.Stats.Instructions))
	reg.Counter("cpu.mispredicts_total").Add(int64(r.Stats.Mispredicts))
	reg.Counter("cpu.gated_cycles_total").Add(int64(r.Stats.GatedCycles))
	for i := range s.rails {
		if sen := s.rails[i].sensor; sen != nil {
			samples, low, high := sen.Trips()
			reg.Counter("sensor.samples_total").Add(int64(samples))
			reg.Counter("sensor.low_trips_total").Add(int64(low))
			reg.Counter("sensor.high_trips_total").Add(int64(high))
		}
	}
	if s.counting != nil {
		reg.Counter("actuator.low_responses_total").Add(int64(s.counting.LowResponses))
		reg.Counter("actuator.high_responses_total").Add(int64(s.counting.HighResponses))
		reg.Counter("actuator.normal_responses_total").Add(int64(s.counting.NormalResponses))
	}
	reg.Histogram("core.run_ipc", 0, 8, 32).Observe(r.IPC())
}
