package core

import (
	"fmt"
	"strconv"

	"didt/internal/cpu"
	"didt/internal/sim"
	"didt/internal/telemetry"
)

// machineRun is the voltage-independent half of an open-loop run: every
// rail's full per-cycle current trace, the whole chip's, and the machine's
// end-of-run aggregates. Immutable once cached — the slices are shared
// across every run that reuses them and must never be written.
type machineRun struct {
	currents [][]float64 // per rail, spec order
	totals   []float64   // whole chip; currents[0] itself on one rail
	stats    cpu.Stats
	energy   float64
	cycles   uint64
}

// machineKey identifies one machine trace: the program plus everything
// that shapes machine evolution on the open-loop path (CPU and power
// configuration, cycle budget) and the rail partition that splits its
// current. Warmup is excluded — it gates statistics, not stepping — and
// the PDN is excluded by construction: the open-loop machine never sees
// the voltage, which is exactly what lets table2 re-use one trace across
// its four impedance points.
type machineKey struct {
	prog      string
	cpu       string
	power     string
	rails     string // each rail's scope mask, spec order
	maxCycles uint64
}

// traceCache memoizes machine traces across open-loop runs keyed by
// Options.ProgKey. Entries are a few hundred KB to a few MB each (8 bytes
// per simulated cycle and trace: one trace on one rail, N+1 on N rails),
// so the default capacity is deliberately small — 16 covers a full
// characterization sweep's distinct (program, machine, partition, budget)
// combinations without letting a long-lived server hold more than ~100 MB
// of single-rail traces.
var traceCache = sim.NewCache[machineKey, *machineRun](16)

func init() {
	traceCache.RegisterMetrics(telemetry.Default(), "cache.core_trace")
	sim.RegisterCacheCapacity("core_trace", 16, traceCache.SetCapacity)
}

// TraceCacheStats reports the machine-trace cache's effectiveness.
func TraceCacheStats() sim.CacheStats { return traceCache.Stats() }

// ResetTraceCache empties the machine-trace cache (benchmarks use it to
// measure cold-start cost).
func ResetTraceCache() { traceCache.Reset() }

// machineTrace returns this run's machine evolution, from the trace cache
// when a ProgKey is present, stepping this system's own machine otherwise.
func (s *System) machineTrace() (*machineRun, error) {
	if s.opts.ProgKey == "" {
		return s.stepMachine()
	}
	var rails []byte
	for i := range s.rails {
		rails = strconv.AppendUint(append(rails, ' '), uint64(s.rails[i].mask), 10)
	}
	key := machineKey{
		prog:      s.opts.ProgKey,
		cpu:       sim.Fingerprint(s.spec.CPU),
		power:     sim.Fingerprint(s.spec.Power),
		rails:     string(rails),
		maxCycles: s.spec.Budget.MaxCycles,
	}
	return traceCache.Get(key, func() (*machineRun, error) {
		return s.stepMachine()
	})
}

// traceCapHint bounds the capacity a per-cycle trace starts with.
const traceCapHint = 1 << 12

// newTrace returns an empty per-cycle trace buffer. It grows by append:
// MaxCycles is a ceiling, not a size — a program may retire long before
// it — so a large budget must not reserve memory the run never uses.
func (s *System) newTrace() []float64 {
	return make([]float64, 0, min(s.spec.Budget.MaxCycles, traceCapHint))
}

// stepMachine runs the machine half to completion with quiescent control
// state (zero gating, zero phantom — the open-loop invariant), mirroring
// Run's loop structure exactly: step, count, stop on completion or budget.
func (s *System) stepMachine() (*machineRun, error) {
	n := len(s.rails)
	mr := &machineRun{currents: make([][]float64, n)}
	for i := range mr.currents {
		mr.currents[i] = s.newTrace()
	}
	if n > 1 {
		mr.totals = s.newTrace()
	}
	var act cpu.Activity
	for mr.cycles < s.spec.Budget.MaxCycles {
		total, done := s.machineStep(&act, s.railCur)
		for i, c := range s.railCur {
			mr.currents[i] = append(mr.currents[i], c)
		}
		if n > 1 {
			mr.totals = append(mr.totals, total)
		}
		mr.cycles++
		if done {
			break
		}
	}
	if err := s.CPU.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if n == 1 {
		mr.totals = mr.currents[0]
	}
	mr.stats = s.CPU.Stats()
	mr.energy = s.Power.TotalEnergy()
	return mr, nil
}

// runOpenLoop is the fast path: machine traces (possibly cached), one
// whole-trace convolution of every rail (coupling included), then a
// statistics replay in cycle order. The convolution runs the streaming
// simulators' recurrence and the replay applies observe's per-cycle
// tally, so the result is bit-identical to the streaming path.
func (s *System) runOpenLoop() (*Result, error) {
	mr, err := s.machineTrace()
	if err != nil {
		return nil, err
	}
	volts := make([][]float64, len(s.rails))
	for i := range volts {
		volts[i] = make([]float64, len(mr.currents[i]))
	}
	s.graph.ConvolveVoltages(volts, mr.currents)

	for c := s.spec.Budget.WarmupCycles; c < mr.cycles; c++ {
		for i := range volts {
			s.railVolt[i] = volts[i][c]
		}
		s.tally()
	}
	if s.opts.RecordTraces {
		s.curTr = append(s.curTr, mr.totals...)
		s.voltTr = append(s.voltTr, volts[0]...)
	}
	s.cycle = mr.cycles
	return s.finish(mr.stats, mr.energy), nil
}
