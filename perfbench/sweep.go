package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"didt/internal/experiments"
	"didt/internal/telemetry"
)

// sweepIDs is the researcher's cold sweep: the single-rail experiments of
// BENCH_sweep.json and the multi-rail pair.
var sweepIDs = []string{
	"table2", "fig14", "stressmark-actuation", "ablation-window",
	"rails-emergencies", "rails-thresholds",
}

// sweepTail is the sweep workload's tail percentile over whole cold
// sweeps: about eleven sweeps fit in a 30 s window, too few for ten samples
// beyond any tail, so the tail is the p75 (two or three beyond).
const sweepTail = 75

// sweepMcycles is the sweep's fixed unit of work for sim_mcycles_per_s:
// the core.cycles_total one cold sweep of sweepIDs at sweepConfig added
// on the code this benchmark was written against (the same for every
// seed). The live counter is not used because it also counts cycles
// served from the machine-trace cache, so a cache change would move it
// whatever happened to the speed.
const sweepMcycles = 1.678421

// sweepConfig is the reduced configuration of cmd/benchreport, with the
// seed as the experiments' seed and two workers.
func sweepConfig(seed int64) experiments.Config {
	cfg := experiments.Quick()
	cfg.Cycles = 30_000
	cfg.Warmup = 10_000
	cfg.Iterations = 300
	cfg.StressIter = 250
	cfg.Benchmarks = []string{"swim", "gcc"}
	cfg.Seed = seed
	cfg.Parallel = 2
	return cfg
}

// expTiming is one experiment call in a child.
type expTiming struct {
	ID  string `json:"id"`
	NS  int64  `json:"ns"`
	Err string `json:"err,omitempty"`
}

// sweepReport is what a child process reports about its one cold sweep.
type sweepReport struct {
	EpochUnixNS     int64              `json:"epoch_unix_ns"` // span clock origin
	FirstCallUnixNS int64              `json:"first_call_unix_ns"`
	EndUnixNS       int64              `json:"end_unix_ns"`
	Experiments     []expTiming        `json:"experiments"`
	Rendered        string             `json:"rendered"`
	Caches          map[string]float64 `json:"caches"`
	Runtime         runtimeStats       `json:"runtime"`
	Spans           []span             `json:"spans,omitempty"`
}

// runSweepChild regenerates sweepIDs once in this (fresh) process, so
// every memo starts empty, and prints a sweepReport.
func runSweepChild(seed int64, traced bool) int {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	cfg := sweepConfig(seed)
	reg := experiments.Registry()
	rt0 := readRuntime()
	rep := sweepReport{FirstCallUnixNS: time.Now().UnixNano()}
	var rendered bytes.Buffer
	for _, id := range sweepIDs {
		fmt.Fprintf(&rendered, "== %s ==\n", id)
		_, end := rec.start("experiments."+id, 1, 0)
		t0 := time.Now()
		err := reg[id](cfg, &rendered)
		el := time.Since(t0)
		end()
		t := expTiming{ID: id, NS: el.Nanoseconds()}
		if err != nil {
			t.Err = err.Error()
		}
		rep.Experiments = append(rep.Experiments, t)
	}
	rep.EndUnixNS = time.Now().UnixNano()
	rep.Rendered = rendered.String()
	rep.Runtime = readRuntime().sub(rt0)
	rep.Caches = map[string]float64{}
	for name, v := range telemetry.Default().Snapshot().Gauges {
		if strings.HasPrefix(name, "cache.") {
			rep.Caches[name] = v
		}
	}
	if rec != nil {
		rep.EpochUnixNS = rec.epoch.UnixNano()
		rep.Spans = rec.spans
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// sweepRun is one child's report plus what the parent measured about it.
type sweepRun struct {
	rep    sweepReport
	spawn  time.Time
	cpu    time.Duration
	rssMB  float64
	wallNS int64 // first experiment call to the last one's end
}

// runChild re-executes this binary as the named child in a fresh process
// and returns its standard output once it has exited.
func runChild(name string, seed int64, traced bool) ([]byte, *os.ProcessState, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--child", name, "--seed", strconv.FormatInt(seed, 10), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s child: %w", name, err)
	}
	return stdout.Bytes(), cmd.ProcessState, nil
}

// spawnSweep runs one cold sweep in a fresh process.
func spawnSweep(seed int64, traced bool) (*sweepRun, error) {
	spawn := time.Now()
	out, ps, err := runChild("sweep", seed, traced)
	if err != nil {
		return nil, err
	}
	r := &sweepRun{spawn: spawn}
	if err := json.Unmarshal(out, &r.rep); err != nil {
		return nil, fmt.Errorf("sweep child report: %w", err)
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		r.cpu, r.rssMB = rusageOf(ru)
	}
	r.wallNS = r.rep.EndUnixNS - r.rep.FirstCallUnixNS
	return r, nil
}

// sweepChecker checks each child's output: no experiment failed, the
// rendered bytes equal the first child's, and Table 2's 100% column is
// all zero. One cold sweep is one operation; it fails if any check does.
type sweepChecker struct{ first string }

func (c *sweepChecker) check(o *outcome, r *sweepRun) {
	var reasons []string
	for _, e := range r.rep.Experiments {
		if e.Err != "" {
			reasons = append(reasons, fmt.Sprintf("experiment %s: %s", e.ID, e.Err))
		}
	}
	if c.first == "" {
		c.first = r.rep.Rendered
	} else if r.rep.Rendered != c.first {
		reasons = append(reasons, "sweep output differs from the first sweep of this run")
	}
	if err := checkTable2Column(r.rep.Rendered); err != nil {
		reasons = append(reasons, fmt.Sprintf("table2: %v", err))
	}
	o.attempted++
	if len(reasons) > 0 {
		o.fail("sweep: %s", strings.Join(reasons, "; "))
	}
}

// checkTable2Column finds every table in the table2 section with a "100%"
// column and requires each of its rows to read 0 there (emergencies are
// impossible at the target impedance).
func checkTable2Column(rendered string) error {
	start := strings.Index(rendered, "== table2 ==\n")
	if start < 0 {
		return fmt.Errorf("no table2 section")
	}
	section := rendered[start+len("== table2 ==\n"):]
	if end := strings.Index(section, "\n== "); end >= 0 {
		section = section[:end]
	}
	rows := 0
	lines := strings.Split(section, "\n")
	for i := 0; i < len(lines); i++ {
		col := strings.Index(lines[i], "100%")
		if col < 0 || !strings.Contains(lines[i], "200%") {
			continue
		}
		for i++; i < len(lines) && strings.HasPrefix(lines[i], "---"); i++ {
		}
		for ; i < len(lines) && lines[i] != "" && !strings.HasPrefix(lines[i], "note:"); i++ {
			row := lines[i]
			if len(row) <= col {
				return fmt.Errorf("row %q has no 100%% column", row)
			}
			fields := strings.Fields(row[col:])
			if len(fields) == 0 || fields[0] != "0" {
				return fmt.Errorf("row %q: 100%% column is not 0", strings.TrimSpace(row))
			}
			rows++
		}
	}
	if rows == 0 {
		return fmt.Errorf("no 100%% column rows found")
	}
	return nil
}

// measureSweep runs cold sweeps, one fresh process each, until the window
// ends (at least two, so the byte-identity check has a pair). One cold
// sweep is one operation: its latency is the sweep's wall time, its
// throughput sweepMcycles over that time, and its CPU cost the child's
// user+sys time. Each is reported as a median (or the tail) over the
// run's sweeps.
func measureSweep(p params) (*outcome, error) {
	o := newOutcome()
	var (
		chk                           sweepChecker
		setup, wallMS, rss, mcps, cpu []float64
	)
	end := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		r, err := spawnSweep(p.seed, false)
		if err != nil {
			return nil, err
		}
		chk.check(o, r)
		setup = append(setup, float64(r.rep.FirstCallUnixNS-r.spawn.UnixNano())/1e9)
		wallMS = append(wallMS, float64(r.wallNS)/1e6)
		rss = append(rss, r.rssMB)
		mcps = append(mcps, sweepMcycles/(float64(r.wallNS)/1e9))
		cpu = append(cpu, r.cpu.Seconds()*1e3)
	}
	o.set("setup_s", median(setup), "s")
	setLatency(o, wallMS, sweepTail)
	o.set("sim_mcycles_per_s", median(mcps), "Mcycles/s")
	o.set("cpu_ms_per_op", median(cpu), "ms")
	o.set("peak_rss_mb", median(rss), "MB")
	o.notef("sweep: %d cold sweeps of %s", len(wallMS), strings.Join(sweepIDs, ","))
	o.notef("sweep_wall_s %.4f s (median); cpu_s %.4f s per sweep (median)", median(wallMS)/1e3, median(cpu)/1e3)
	return o, nil
}
