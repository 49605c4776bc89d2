package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/core"
	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sensor"
	"didt/internal/server"
	"didt/internal/spec"
	"didt/internal/store"
	"didt/internal/telemetry"
)

// replayCycles is the closed-loop length recorded at each impedance.
const replayCycles = 100_000

// measureLayers is the traced run: the per-layer table, built from
// replays of recorded inputs through each layer's public functions, from
// direct calls into the set-up layers, and from traced, shortened runs of
// the workloads. Every metric it reports is per-layer.
func measureLayers(p params, rec *recorder) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(p.seed))
	pool := simPool()
	plan := planServe(p.seed, p.seconds/2)

	// Set-up layers first, while every memo in this process is cold.
	if err := layerSpec(o, plan, rec); err != nil {
		return nil, err
	}
	progs, err := layerWorkload(o, pool, rec)
	if err != nil {
		return nil, err
	}
	sys, err := layerNewSystem(o, pool, progs, rec)
	if err != nil {
		return nil, err
	}
	if err := layerSolve(o, sys, rec); err != nil {
		return nil, err
	}
	if err := layerReplay(o, pool[rng.Intn(len(pool))], progs, rec); err != nil {
		return nil, err
	}
	if err := layerConvolve(o, progs["swim"], rec); err != nil {
		return nil, err
	}

	// Workload sections. The named workload is also run untraced, for
	// trace.overhead_pct.
	if err := sectionSweep(o, p, rec); err != nil {
		return nil, err
	}
	if p.workload == "simulate" {
		if err := sectionSimulate(o, p, rec); err != nil {
			return nil, err
		}
	}
	bodies, err := sectionServe(o, p, rec)
	if err != nil {
		return nil, err
	}
	if err := layerStore(o, bodies, rec); err != nil {
		return nil, err
	}
	return o, nil
}

// timed runs f inside a span and returns its wall time.
func timed(rec *recorder, name string, req uint64, f func()) time.Duration {
	_, end := rec.start(name, req, 0)
	t0 := time.Now()
	f()
	el := time.Since(t0)
	end()
	return el
}

// layerSpec times JSON decode + Resolve + Key on every serve request body.
func layerSpec(o *outcome, plan servePlan, rec *recorder) error {
	var bodies [][]byte
	for _, a := range plan.Schedule {
		if len(a.Specs) > 0 {
			bodies = append(bodies, simulateBody(a.Specs[0]))
		}
	}
	var us []float64
	for _, b := range bodies {
		var (
			key string
			err error
		)
		el := timed(rec, "spec.decode_resolve_key", rec.newRequest(), func() {
			var req server.SimulateRequest
			if err = json.Unmarshal(b, &req); err != nil {
				return
			}
			var r spec.RunSpec
			if r, err = req.Spec.Resolve(); err == nil {
				key = r.Key()
			}
		})
		o.attempted++
		if err != nil || !strings.HasPrefix(key, "rs1-") {
			o.fail("spec: body did not resolve to a key: %v", err)
			continue
		}
		us = append(us, float64(el.Nanoseconds())/1e3)
	}
	o.set("spec.decode_resolve_key_us", median(us), "us")
	return nil
}

// layerWorkload times the first RunSpec.Program() call per pool profile.
func layerWorkload(o *outcome, pool []string, rec *recorder) (map[string]isa.Program, error) {
	progs := map[string]isa.Program{}
	var ms []float64
	for _, name := range pool {
		var sp spec.RunSpec
		sp.Workload.Name = name
		sp.Workload.Iterations = simIterations
		sp = sp.WithDefaults()
		var (
			prog isa.Program
			err  error
		)
		el := timed(rec, "workload.generate", rec.newRequest(), func() { prog, err = sp.Program() })
		o.attempted++
		if err != nil {
			return nil, err
		}
		progs[name] = prog
		ms = append(ms, float64(el.Nanoseconds())/1e6)
	}
	o.set("workload.generate_ms", median(ms), "ms")
	return progs, nil
}

// controlled builds a sparse controlled spec on the pool's programs.
func controlled(name string, z float64, mech string, delay int, cycles uint64) spec.RunSpec {
	var sp spec.RunSpec
	sp.Workload.Name = name
	sp.Workload.Iterations = simIterations
	sp.PDN.ImpedancePct = z
	sp.Control.Enabled = true
	sp.Actuator.Mechanism = mech
	sp.Sensor.DelayCycles = delay
	sp.Budget.MaxCycles = cycles
	sp.Budget.WarmupCycles = simWarmup
	return sp
}

// layerNewSystem times the first core.NewSystem per distinct controlled
// configuration (envelope probe on the first, then calibrate and solve).
// It returns the last system for the solver layer's envelope.
func layerNewSystem(o *outcome, pool []string, progs map[string]isa.Program, rec *recorder) (*core.System, error) {
	var (
		ms   []float64
		last *core.System
	)
	for i, z := range simImpedances {
		for _, d := range []int{1, 3} {
			name := pool[i%len(pool)]
			sp := controlled(name, z, "FU/DL1/IL1", d, simCycles).WithDefaults()
			var (
				sys *core.System
				err error
			)
			el := timed(rec, "core.NewSystem", rec.newRequest(), func() {
				sys, err = core.NewSystem(progs[name], core.Options{Spec: sp})
			})
			o.attempted++
			if err != nil {
				return nil, err
			}
			if last != nil {
				last.Close()
			}
			last = sys
			ms = append(ms, float64(el.Nanoseconds())/1e6)
		}
	}
	o.set("core.new_system_ms", median(ms), "ms")
	return last, nil
}

// layerSolve times one cold Solver.Solve per (impedance, mechanism,
// delay) on networks calibrated the way core.NewSystem calibrates them.
func layerSolve(o *outcome, sys *core.System, rec *recorder) error {
	defer sys.Close()
	iMin, iMax := sys.Envelope()
	sp := sys.Spec()
	params := sp.PDN.Params
	params.IFloor = 0.5 * (iMin + iMax)
	var ms []float64
	for _, z := range simImpedances {
		net, err := pdn.Calibrate(params, iMin, iMax, z)
		if err != nil {
			return err
		}
		solver := control.NewSolver(net)
		for _, m := range simMechanisms {
			mech, err := actuator.ByName(m)
			if err != nil {
				return err
			}
			floor, ceil := mech.Envelope(sys.Power)
			env := control.Envelope{IMin: iMin, IMax: iMax, Floor: floor, Ceil: ceil, Settle: sp.Control.SettleCycles}
			for _, d := range []int{0, 2, 4} {
				el := timed(rec, "control.Solve", rec.newRequest(), func() { _, err = solver.Solve(env, d) })
				o.attempted++
				if err != nil {
					o.fail("solve z=%g %s delay %d: %v", z, m, d, err)
					continue
				}
				ms = append(ms, float64(el.Nanoseconds())/1e6)
			}
		}
	}
	o.set("control.solve_ms", median(ms), "ms")
	return nil
}

// loopTape is one recorded closed-loop run: each layer's per-cycle inputs
// and outputs.
type loopTape struct {
	gating  []cpu.Gating    // gating in force at each cycle
	phantom []power.Phantom // phantom firing in force at each cycle
	act     []cpu.Activity
	cur     []float64
	volt    []float64
	level   []sensor.Level
}

// loopStats is what the traced loop must share with core.Run.
type loopStats struct {
	cycles, emergencies uint64
	minV, maxV          float64
}

// recordLoop runs the closed loop once through the system's public layer
// objects — the same sequence as core.System.StepCycle with a spec that
// has no flush recovery, ramp, DVS or second rail — and records every
// layer's inputs.
func recordLoop(sys *core.System, sp spec.RunSpec) (*loopTape, loopStats, error) {
	mech, err := sp.Mechanism()
	if err != nil {
		return nil, loopStats{}, err
	}
	n := int(sp.Budget.MaxCycles)
	t := &loopTape{
		gating: make([]cpu.Gating, 0, n), phantom: make([]power.Phantom, 0, n),
		act: make([]cpu.Activity, n), cur: make([]float64, 0, n),
		volt: make([]float64, 0, n), level: make([]sensor.Level, 0, n),
	}
	st := loopStats{minV: math.Inf(1), maxV: math.Inf(-1)}
	vmin, vmax := sys.Net.VMin(), sys.Net.VMax()
	var (
		pol control.Policy
		g   cpu.Gating
		ph  power.Phantom
	)
	for c := 0; c < n; c++ {
		t.gating = append(t.gating, g)
		t.phantom = append(t.phantom, ph)
		sys.CPU.SetGating(g)
		done := sys.CPU.StepInto(&t.act[c])
		cur := sys.Power.Step(&t.act[c], ph).Current
		v := sys.Sim.Step(cur)
		if uint64(c) >= sp.Budget.WarmupCycles {
			st.minV = math.Min(st.minV, v)
			st.maxV = math.Max(st.maxV, v)
			if v < vmin || v > vmax {
				st.emergencies++
			}
		}
		lvl := sys.Sensor.Sense(v)
		gate, phon := pol.Update(lvl == sensor.Low, lvl == sensor.High)
		g, ph = mech.Respond(lvl)
		if !gate {
			g = cpu.Gating{}
		}
		if !phon {
			ph = power.Phantom{}
		}
		t.cur = append(t.cur, cur)
		t.volt = append(t.volt, v)
		t.level = append(t.level, lvl)
		st.cycles++
		if done {
			break
		}
	}
	t.act = t.act[:st.cycles]
	return t, st, sys.CPU.Err()
}

// layerReplay records the closed loop at each impedance, replays every
// layer alone on fresh instances (one timed block per layer), requires
// bit-identical outputs, and checks the traced loop against core.Run.
func layerReplay(o *outcome, name string, progs map[string]isa.Program, rec *recorder) error {
	total := map[string]time.Duration{} // per layer, over the impedances
	var cycles int
	var coreNS time.Duration
	prog := progs[name]
	for _, z := range simImpedances {
		sp := controlled(name, z, "FU/DL1", 2, replayCycles)
		sp.Sensor.NoiseMV = 2
		sp = sp.WithDefaults()
		req := rec.newRequest()
		sys, err := core.NewSystem(prog, core.Options{Spec: sp})
		if err != nil {
			return err
		}
		var (
			tape *loopTape
			st   loopStats
		)
		timed(rec, "core.traced_loop", req, func() { tape, st, err = recordLoop(sys, sp) })
		lo, hi := sys.Sensor.Thresholds()
		net := sys.Net
		sys.Close()
		if err != nil {
			return err
		}
		n := len(tape.cur)
		cycles += n
		label := fmt.Sprintf("z%.0f", 100*z)

		// The reference: core.Run on a fresh system of the same spec.
		ref, err := core.NewSystem(prog, core.Options{Spec: sp})
		if err != nil {
			return err
		}
		var res *core.Result
		coreNS += timed(rec, "core.Run", req, func() { res, err = ref.Run() })
		ref.Close()
		if err != nil {
			return err
		}
		o.attempted++
		if res.Cycles != st.cycles || res.Emergencies != st.emergencies || res.MinV != st.minV || res.MaxV != st.maxV {
			o.fail("traced loop at %s: cycles %d/%d emergencies %d/%d minV %v/%v maxV %v/%v vs core.Run",
				label, st.cycles, res.Cycles, st.emergencies, res.Emergencies, st.minV, res.MinV, st.maxV, res.MaxV)
		}

		// cpu: the recorded gating sequence into a fresh core.
		c, err := cpu.New(sp.CPU, prog)
		if err != nil {
			return err
		}
		acts := make([]cpu.Activity, n)
		total["cpu"] += timed(rec, "cpu.StepInto", req, func() {
			for i := range acts {
				c.SetGating(tape.gating[i])
				c.StepInto(&acts[i])
			}
		})
		o.replayCheck("cpu", label, n, func(i int) bool { return acts[i] == tape.act[i] })
		acts = nil

		// power: the recorded activity and phantom flags.
		pm := power.New(sp.Power, c.Config())
		out := make([]float64, n)
		total["power"] += timed(rec, "power.Step", req, func() {
			for i := range out {
				out[i] = pm.Step(&tape.act[i], tape.phantom[i]).Current
			}
		})
		o.replayCheck("power", label, n, func(i int) bool { return sameBits(out[i], tape.cur[i]) })

		// pdn: the recorded currents through a fresh simulator.
		sim := net.NewSimulator()
		el := timed(rec, "pdn.Simulator.Step", req, func() {
			for i := range out {
				out[i] = sim.Step(tape.cur[i])
			}
		})
		sim.Release()
		total["pdn"] += el
		o.set("pdn.step_ns_per_cycle."+label, float64(el.Nanoseconds())/float64(n), "ns")
		o.replayCheck("pdn", label, n, func(i int) bool { return sameBits(out[i], tape.volt[i]) })

		// sensor: the recorded voltages.
		sen, err := sensor.New(sp.Sensor.DelayCycles, sp.Sensor.NoiseMV*1e-3, sp.Seed.Resolve(0))
		if err != nil {
			return err
		}
		if err := sen.SetThresholds(lo, hi); err != nil {
			return err
		}
		levels := make([]sensor.Level, n)
		total["sensor"] += timed(rec, "sensor.Sense", req, func() {
			for i := range levels {
				levels[i] = sen.Sense(tape.volt[i])
			}
		})
		o.replayCheck("sensor", label, n, func(i int) bool { return levels[i] == tape.level[i] })

		// actuator: the recorded levels through the policy and mechanism.
		mech, err := sp.Mechanism()
		if err != nil {
			return err
		}
		var pol control.Policy
		gates := make([]cpu.Gating, n)
		phs := make([]power.Phantom, n)
		total["actuator"] += timed(rec, "actuator.Respond", req, func() {
			for i, lvl := range tape.level {
				gate, phon := pol.Update(lvl == sensor.Low, lvl == sensor.High)
				g, ph := mech.Respond(lvl)
				if !gate {
					g = cpu.Gating{}
				}
				if !phon {
					ph = power.Phantom{}
				}
				gates[i], phs[i] = g, ph
			}
		})
		o.replayCheck("actuator", label, n-1, func(i int) bool {
			return gates[i] == tape.gating[i+1] && phs[i] == tape.phantom[i+1]
		})
	}
	perCycle := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(cycles) }
	layers := 0.0
	for _, l := range []string{"cpu", "power", "pdn", "sensor", "actuator"} {
		v := perCycle(total[l])
		layers += v
		if l != "pdn" {
			o.set(l+".ns_per_cycle", v, "ns")
		}
	}
	o.set("core.step_ns_per_cycle", perCycle(coreNS), "ns")
	o.set("core.glue_ns_per_cycle", perCycle(coreNS)-layers, "ns")
	o.notef("replay: %s, FU/DL1, delay 2, noise 2 mV, %d cycles at each of 100/200/400%%", name, replayCycles)
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// replayCheck counts one replay as an operation and fails it on the first
// output that differs from the recording.
func (o *outcome) replayCheck(layer, label string, n int, same func(i int) bool) {
	o.attempted++
	for i := 0; i < n; i++ {
		if !same(i) {
			o.fail("%s replay at %s: output %d differs from the recording", layer, label, i)
			return
		}
	}
}

// layerConvolve times Network.ConvolveVoltages over a recorded
// uncontrolled current trace and requires the recorded voltages back.
func layerConvolve(o *outcome, prog isa.Program, rec *recorder) error {
	var sp spec.RunSpec
	sp.Workload.Name = "swim"
	sp.Workload.Iterations = simIterations
	sp.Budget.MaxCycles = replayCycles
	sp.Budget.WarmupCycles = simWarmup
	sp = sp.WithDefaults()
	sys, err := core.NewSystem(prog, core.Options{Spec: sp, RecordTraces: true})
	if err != nil {
		return err
	}
	defer sys.Close()
	res, err := sys.Run()
	if err != nil {
		return err
	}
	cur := []float64(res.CurrentTrace)
	dst := make([]float64, len(cur))
	var ns []float64
	for i := 0; i < 5; i++ {
		el := timed(rec, "pdn.ConvolveVoltages", rec.newRequest(), func() { sys.Net.ConvolveVoltages(dst, cur) })
		ns = append(ns, float64(el.Nanoseconds())/float64(len(cur)))
	}
	o.set("pdn.convolve_ns_per_sample", median(ns), "ns")
	o.replayCheck("pdn.convolve", "z200", len(cur), func(i int) bool { return sameBits(dst[i], res.VoltageTrace[i]) })
	return nil
}

// sectionSweep runs one traced cold sweep in a fresh process: the
// experiments and cache rows, and control.solves. On the sweep workload
// an untraced sweep runs first for the overhead and the runtime rows come
// from the traced child.
func sectionSweep(o *outcome, p params, rec *recorder) error {
	var plain *sweepRun
	if p.workload == "sweep" {
		var err error
		if plain, err = spawnSweep(p.seed, false); err != nil {
			return err
		}
	}
	r, err := spawnSweep(p.seed, true)
	if err != nil {
		return err
	}
	var chk sweepChecker
	chk.check(o, r)
	if plain != nil {
		chk.check(o, plain)
		o.set("trace.overhead_pct", 100*float64(r.wallNS-plain.wallNS)/float64(plain.wallNS), "%")
		setRuntime(o, r.rep.Runtime)
	}
	req := rec.newRequest()
	root, end := rec.start("sweep", req, 0)
	end()
	off := r.rep.EpochUnixNS - rec.epoch.UnixNano() // child span clock onto rec's
	for _, s := range r.rep.Spans {
		rec.add(s, req, root, off)
	}
	for _, e := range r.rep.Experiments {
		o.set("experiments."+e.ID+"_s", float64(e.NS)/1e9, "s")
	}
	o.set("experiments.sweep_wall_s", float64(r.wallNS)/1e9, "s")
	names := make([]string, 0, len(r.rep.Caches))
	for n := range r.rep.Caches {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.rep.Caches[n]
		base := "sim." + strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(n, ".hits"), ".misses"), ".hit_rate")
		switch {
		case strings.HasSuffix(n, ".hits"):
			o.set(base+".hits", v, "count")
		case strings.HasSuffix(n, ".misses"):
			o.set(base+".misses", v, "count")
		case strings.HasSuffix(n, ".hit_rate"):
			o.set(base+".hit_ratio", v, "ratio")
		}
	}
	o.set("control.solves", r.rep.Caches["cache.control_solve.misses"], "count")
	return nil
}

func setRuntime(o *outcome, st runtimeStats) {
	o.set("runtime.gc_cycles", st.GCCycles, "count")
	o.set("runtime.gc_pause_ms", st.GCPauseMS, "ms")
	o.set("runtime.alloc_mb", st.AllocMB, "MB")
}

// sectionSimulate runs the simulate workload's list three times: an
// untraced pass to warm the memos, a traced pass, and an untraced pass
// the traced one is compared with.
func sectionSimulate(o *outcome, p params, rec *recorder) error {
	jobs, err := prepareSimulate(simulateList(p.seed))
	if err != nil {
		return err
	}
	chk := simChecker{first: make([]*runStats, len(jobs))}
	pass := func(r *recorder) time.Duration {
		t0 := time.Now()
		for i, j := range jobs {
			res, err := runOne(j, r)
			o.attempted++
			if err != nil {
				o.fail("run %d: %v", i, err)
				continue
			}
			chk.check(o, i, j, res)
		}
		return time.Since(t0)
	}
	pass(nil)
	rt0 := readRuntime()
	traced := pass(rec)
	setRuntime(o, readRuntime().sub(rt0))
	plain := pass(nil)
	o.set("trace.overhead_pct", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds(), "%")
	return nil
}

// sectionServe runs a traced serve window of half the run length (one
// set-up round) for the server, load-generator and per-class rows. On the
// serve workload an untraced window runs first, for the overhead (summed
// request latency). It returns the simulate bodies the window saw.
func sectionServe(o *outcome, p params, rec *recorder) ([][]byte, error) {
	half := params{workload: p.workload, seed: p.seed, seconds: p.seconds / 2}
	var plainLat float64
	if p.workload == "serve" {
		po, plain, err := serveWindow(half, nil, 0)
		if err != nil {
			return nil, err
		}
		o.absorb(po)
		plainLat = sum(summarize(plain).all)
	}
	rt0 := readRuntime()
	so, run, err := serveWindow(half, rec, 0)
	if err != nil {
		return nil, err
	}
	res := summarize(run)
	if p.workload == "serve" {
		setRuntime(o, readRuntime().sub(rt0))
		o.set("trace.overhead_pct", 100*(sum(res.all)-plainLat)/plainLat, "%")
	}
	o.absorb(so)
	o.report = append(o.report, so.report...)

	for _, c := range []string{classCold, classHit, classNotModified, classBatch} {
		xs := res.byClass[c]
		_, tail := classTail(xs)
		o.set("serve."+c+"_p50_ms", median(xs), "ms")
		o.set("serve."+c+"_tail_ms", tail, "ms")
	}
	o.set("server.coalesced_p50_ms", median(res.byClass[classCoalesced]), "ms")
	runs := float64(run.after.Counters["didtd.engine_runs_total"] - run.before.Counters["didtd.engine_runs_total"])
	o.set("server.engine_runs", runs, "count")
	answered := 0
	for _, s := range run.samples {
		if s.status == 200 || s.status == 304 {
			answered++
		}
	}
	o.set("server.useful_ratio", float64(answered)/math.Max(runs, 1), "ratio")
	// The histogram's 250 ms buckets are too coarse for a median; its sum
	// gives the exact mean.
	o.set("server.queue_wait_mean_ms", histMean(run.before.Histograms["didtd.admission.queue_wait_ms"],
		run.after.Histograms["didtd.admission.queue_wait_ms"]), "ms")
	o.set("loadgen.late_p99_ms", percentile(res.lateMS, 99), "ms")
	return run.bodies, nil
}

// histMean is the mean of the observations a histogram gained between
// two snapshots (0 when it gained none).
func histMean(before, after telemetry.HistogramSnapshot) float64 {
	n := float64(after.Count) - float64(before.Count)
	if n <= 0 {
		return 0
	}
	return (after.Mean*float64(after.Count) - before.Mean*float64(before.Count)) / n
}

// layerStore times Store.Put and Store.Get on the serve bodies in a
// separate temporary store, and requires every body back unchanged.
func layerStore(o *outcome, bodies [][]byte, rec *recorder) error {
	dir, err := os.MkdirTemp(buildDir, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	var putMS, getUS []float64
	for i, b := range bodies {
		key := fmt.Sprintf("perfbench|%d", i)
		el := timed(rec, "store.Put", rec.newRequest(), func() { _, err = st.Put(key, b) })
		o.attempted++
		if err != nil {
			o.fail("store put: %v", err)
			continue
		}
		putMS = append(putMS, float64(el.Nanoseconds())/1e6)
	}
	for i, b := range bodies {
		key := fmt.Sprintf("perfbench|%d", i)
		var (
			got []byte
			ok  bool
		)
		el := timed(rec, "store.Get", rec.newRequest(), func() { got, _, ok = st.Get(key) })
		o.attempted++
		if !ok || string(got) != string(b) {
			o.fail("store get %d: body not returned unchanged", i)
			continue
		}
		getUS = append(getUS, float64(el.Nanoseconds())/1e3)
	}
	o.set("store.put_ms", median(putMS), "ms")
	o.set("store.get_us", median(getUS), "us")
	return nil
}
