package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"didt/internal/core"
	"didt/internal/isa"
	"didt/internal/spec"
	"didt/internal/workload"
)

const (
	simCycles = 120_000 // per-run cycle budget
	simWarmup = 20_000
	// simIterations keeps every program running past the cycle budget.
	simIterations = 1_000_000
	// simSetupRounds is how many times set-up is repeated for its median.
	// One round takes well under a millisecond, and its time drops after
	// the first dozen or so rounds, so enough rounds put the median on the
	// steady side.
	simSetupRounds = 61
	// simTail is the simulate workload's tail percentile: five to nine
	// warm passes of 27 runs in a 30 s window, ten or more runs beyond it.
	simTail = 90
)

var (
	simImpedances = []float64{1, 2, 4}
	simMechanisms = []string{"FU", "FU/DL1", "FU/DL1/IL1"}
)

// simPool is the workload pool: the stressmark plus the paper's eight
// most voltage-variable SPEC2000 profiles.
func simPool() []string { return append([]string{"stressmark"}, workload.ChallengingEight()...) }

// simulateList generates the seeded run list: three runs per (impedance,
// mechanism) cell, at three distinct seeded sensor delays in 0-4. A seeded
// permutation splits the pool's nine workloads into three groups of
// three, and group g runs in the cells (z, m) with m-z = g (mod 3), so
// every workload runs once at each impedance and once with each
// mechanism. Every seed's list then has nearly the same mix of run costs,
// and its median and tail move little with the seed.
func simulateList(seed int64) []spec.RunSpec {
	rng := rand.New(rand.NewSource(seed))
	pool := simPool()
	const perCell = 3
	order := rng.Perm(len(pool))
	var out []spec.RunSpec
	for zi, z := range simImpedances {
		for mi, m := range simMechanisms {
			group := order[(mi-zi+perCell)%perCell*perCell:][:perCell]
			delays := rng.Perm(5)[:perCell]
			for k, d := range delays {
				var sp spec.RunSpec
				sp.Workload.Name = pool[group[k]]
				sp.Workload.Iterations = simIterations
				sp.PDN.ImpedancePct = z
				sp.Control.Enabled = true
				sp.Actuator.Mechanism = m
				sp.Sensor.DelayCycles = d
				sp.Budget.MaxCycles = simCycles
				sp.Budget.WarmupCycles = simWarmup
				sp.Seed = spec.NewSeed(rng.Int63n(1 << 30))
				out = append(out, sp)
			}
		}
	}
	return out
}

// simJob is one resolved run and its program.
type simJob struct {
	spec spec.RunSpec
	prog isa.Program
}

// prepareSimulate resolves the run list and generates each distinct
// program, bypassing the program caches so every call does the work.
func prepareSimulate(list []spec.RunSpec) ([]simJob, error) {
	progs := map[string]isa.Program{}
	jobs := make([]simJob, len(list))
	for i, sp := range list {
		r, err := sp.Resolve()
		if err != nil {
			return nil, err
		}
		w := r.Workload
		key := fmt.Sprintf("%s/%d", w.Name, w.Iterations)
		prog, ok := progs[key]
		if !ok {
			if w.Name == "stressmark" {
				prog = workload.Stressmark(workload.StressmarkParams{Iterations: w.Iterations})
			} else {
				p, err := workload.ProfileByName(w.Name)
				if err != nil {
					return nil, err
				}
				p.Iterations = w.Iterations
				prog = workload.Generate(p)
			}
			progs[key] = prog
		}
		jobs[i] = simJob{spec: r, prog: prog}
	}
	return jobs, nil
}

// runStats is the part of a result that must repeat exactly.
type runStats struct {
	cycles, emergencies, instructions, low, high uint64
	minV, maxV, energy                           uint64 // float bits
	stable                                       bool
}

func statsOf(r *core.Result) runStats {
	return runStats{
		cycles: r.Cycles, emergencies: r.Emergencies, instructions: r.Stats.Instructions,
		low: r.LowEvents, high: r.HighEvents,
		minV: math.Float64bits(r.MinV), maxV: math.Float64bits(r.MaxV), energy: math.Float64bits(r.Energy),
		stable: r.Thresholds.Stable,
	}
}

// runOne builds and runs one system, with spans around both calls.
func runOne(j simJob, rec *recorder) (*core.Result, error) {
	req := rec.newRequest()
	id, end := rec.start("simulate.run", req, 0)
	defer end()
	_, endNew := rec.start("core.NewSystem", req, id)
	sys, err := core.NewSystem(j.prog, core.Options{Spec: j.spec})
	endNew()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	_, endRun := rec.start("core.Run", req, id)
	defer endRun()
	return sys.Run()
}

// simChecker checks that each run's statistics repeat exactly and that a
// run with Stable thresholds has no emergencies.
type simChecker struct{ first []*runStats }

func (c *simChecker) check(o *outcome, i int, j simJob, r *core.Result) {
	st := statsOf(r)
	if c.first[i] == nil {
		c.first[i] = &st
	} else if *c.first[i] != st {
		o.fail("run %d (%s): statistics differ from its first run", i, j.spec.Workload.Name)
	}
	if st.stable && st.emergencies != 0 {
		o.fail("run %d (%s, %g%%, %s, delay %d): stable thresholds but %d emergencies",
			i, j.spec.Workload.Name, 100*j.spec.PDN.ImpedancePct, j.spec.Actuator.Mechanism,
			j.spec.Sensor.DelayCycles, st.emergencies)
	}
}

// measureSimulate sets up the seeded run list and runs one untimed
// warm-up pass over it, so the process-wide threshold-solve, envelope and
// kernel memos are filled before the window (the cold cost of a run is
// the traced table's core.new_system_ms and control.solve_ms). It then
// runs whole timed passes, one run at a time: as many as fit in the
// window at the first timed pass's pace, and at least two. Every timed
// run is a warm run, so every window's percentiles are over the same
// kind of sample.
func measureSimulate(p params) (*outcome, error) {
	o := newOutcome()
	list := simulateList(p.seed)
	var (
		jobs  []simJob
		setup []float64
	)
	for i := 0; i < simSetupRounds; i++ {
		// Each round starts from a collected heap, so a collection of an
		// earlier round's garbage does not land in a later round's time.
		runtime.GC()
		t0 := time.Now()
		js, err := prepareSimulate(list)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		jobs = js
	}
	chk := simChecker{first: make([]*runStats, len(jobs))}
	// pass runs the list once, checking every result, and returns its
	// simulated cycles and per-run latencies.
	pass := func() (cycles uint64, latMS []float64) {
		for i, j := range jobs {
			r0 := time.Now()
			res, err := runOne(j, nil)
			lat := time.Since(r0)
			o.attempted++
			if err != nil {
				o.fail("run %d: %v", i, err)
				continue
			}
			latMS = append(latMS, float64(lat.Nanoseconds())/1e6)
			cycles += res.Cycles
			chk.check(o, i, j, res)
		}
		return cycles, latMS
	}
	pass()
	// Throughput and CPU cost are taken per pass and reported as medians
	// over passes, so a stretch of slow host time inside the window moves
	// them less.
	var latMS, mcps, cpuPerRun []float64
	start := time.Now()
	passes := 2
	for k := 0; k < passes; k++ {
		cpu0, t0 := cpuTime(), time.Now()
		cycles, lat := pass()
		el := time.Since(t0)
		if k == 0 {
			passes = max(2, int(math.Round(p.seconds/el.Seconds())))
		}
		latMS = append(latMS, lat...)
		mcps = append(mcps, float64(cycles)/el.Seconds()/1e6)
		cpuPerRun = append(cpuPerRun, (cpuTime()-cpu0).Seconds()*1e3/float64(len(jobs)))
	}
	window := time.Since(start)
	o.set("setup_s", median(setup), "s")
	setLatency(o, latMS, simTail)
	o.set("sim_mcycles_per_s", median(mcps), "Mcycles/s")
	o.set("cpu_ms_per_op", median(cpuPerRun), "ms")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	o.notef("simulate: warm-up pass, then %d timed passes over %d runs (%d cycles each), window %.2f s, cpu_s %.3f s",
		passes, len(jobs), simCycles, window.Seconds(), sum(cpuPerRun)*float64(len(jobs))/1e3)
	return o, nil
}
