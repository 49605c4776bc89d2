// Command perfbench is the repository's benchmark. It runs one named
// workload against the didt library (and, for serve, an in-process didtd)
// for a fixed number of seconds, checks the workload's outputs, and prints
// its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	sweep     cold regeneration of six experiments, one fresh process per sweep
//	simulate  a seeded list of long controlled single runs
//	serve     open-loop seeded request mix against an in-process didtd
//
// With --trace 1 it instead runs the traced layer table: every layer's
// public functions replayed on recorded inputs, plus traced, shortened
// versions of all three workloads; see README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload simulate --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload measurement produces.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// report holds human-readable detail lines printed before the result.
	report []string
	// failures names each failed check, for standard error.
	failures []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func (o *outcome) notef(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// fail records one failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// absorb adds another measurement's operations and failures to o.
func (o *outcome) absorb(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.failures = append(o.failures, other.failures...)
}

// params is one invocation's inputs.
type params struct {
	workload string
	seed     int64
	seconds  float64
}

// workloads maps each workload name to its untimed-setup + timed-window
// measurement.
var workloads = map[string]func(p params) (*outcome, error){
	"sweep":    measureSweep,
	"simulate": measureSimulate,
	"serve":    measureServe,
}

// buildDir holds every file a run writes: span exports and temporary
// stores. It is the build directory run.sh uses.
const buildDir = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	var (
		wl      = flag.String("workload", "", "workload: sweep, simulate or serve")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer table instead of the end-to-end measurement")
		child   = flag.String("child", "", "internal: run one cold sweep (sweep) or serve set-up (serve-setup) in this process and report it as JSON")
	)
	flag.Parse()
	switch *child {
	case "":
	case "sweep":
		return runSweepChild(*seed, *trace == 1)
	case "serve-setup":
		return runServeSetupChild(*seed)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -child %q\n", *child)
		return 2
	}
	if _, ok := workloads[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want sweep, simulate or serve)\n", *wl)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	p := params{workload: *wl, seed: *seed, seconds: *seconds}
	var (
		out *outcome
		err error
	)
	if *trace == 1 {
		rec := newRecorder()
		out, err = measureLayers(p, rec)
		if err == nil {
			path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", p.workload, p.seed))
			if werr := rec.writeJSONL(path); werr != nil {
				err = werr
			} else {
				out.notef("spans written to %s", path)
			}
		}
	} else {
		out, err = workloads[p.workload](p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out.notef("host: nproc %d, GOMAXPROCS %d, %s; workload %s, seed %d, %g s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), p.workload, p.seed, p.seconds)
	return printOutcome(out)
}

func printOutcome(out *outcome) int {
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("%-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	fmt.Printf("failed_ratio %.6g (%d of %d operations)\n",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// setLatency reports the op_p50_ms and op_tail_ms end-to-end metrics from
// per-operation latencies, with the tail at the workload's fixed
// percentile.
func setLatency(o *outcome, latMS []float64, tailP float64) {
	o.set("op_p50_ms", median(latMS), "ms")
	o.set("op_tail_ms", percentile(latMS, tailP), "ms")
	o.notef("op latency: %d samples, tail = p%g (%d samples beyond it)",
		len(latMS), tailP, int(float64(len(latMS))*(1-tailP/100)))
}
