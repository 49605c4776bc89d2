package power_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"didt/internal/cpu"
	"didt/internal/isa"
	"didt/internal/power"
	"didt/internal/workload"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/machine_digest.golden from the current code")

const (
	digestGolden = "testdata/machine_digest.golden"
	digestCycles = 40_000
	digestEvery  = 8192 // checkpoint interval, to localize a divergence
)

// digestSchedule is one seeded actuator schedule: which structures the
// gating and phantom bursts cover and whether pipeline flushes occur.
type digestSchedule struct {
	name          string
	gate, phantom power.Phantom // structures that burst on and off
	flush         bool
}

var digestSchedules = []digestSchedule{
	{name: "none"},
	{name: "fu+phantom", gate: power.Phantom{FUs: true}, phantom: power.Phantom{FUs: true}},
	{name: "fu/dl1/il1+flush", gate: power.Phantom{FUs: true, DL1: true, IL1: true},
		phantom: power.Phantom{FUs: true, DL1: true, IL1: true}, flush: true},
}

// splitmix is a tiny fixed PRNG, so the schedules never depend on the
// standard library's generator.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// burst toggles a flag with probability 1/32 per cycle, so gating and
// phantom firing come in runs of a few tens of cycles — the scale of the
// controller's responses — and change inside long stalls.
func (s *splitmix) burst(on *bool) {
	if s.next()%32 == 0 {
		*on = !*on
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

func (d *digest) activity(a *cpu.Activity) {
	for _, v := range [...]int{a.Fetched, a.Dispatched, a.Issued, a.Completed, a.Committed,
		a.BpredLookups, a.ICacheAccess, a.DCacheAccess, a.L2Access, a.RegReads,
		a.RegWrites, a.WindowWakeups, a.RUUOccupancy, a.LSQOccupancy} {
		d.word(uint64(v))
	}
	for _, v := range a.IssuedByClass {
		d.word(uint64(v))
	}
	d.flag(a.FUsGated)
	d.flag(a.DL1Gated)
	d.flag(a.IL1Gated)
}

func (d *digest) report(r *power.CycleReport) {
	d.word(math.Float64bits(r.Power))
	d.word(math.Float64bits(r.Current))
	for _, v := range r.PerUnit {
		d.word(math.Float64bits(v))
	}
}

// digestRun drives a fresh core and power model through one schedule and
// renders the per-cycle digest checkpoints and the final state as one
// golden line.
func digestRun(t *testing.T, name string, prog isa.Program, sch digestSchedule, seed uint64) string {
	t.Helper()
	c, err := cpu.New(cpu.Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	m := power.New(power.Params{}, c.Config())
	rng := splitmix(seed)
	var (
		d        digest = 14695981039346656037
		g        cpu.Gating
		ph       power.Phantom
		act      cpu.Activity
		b        strings.Builder
		cycles   int
		gatingOn [3]bool
		phOn     [3]bool
	)
	fmt.Fprintf(&b, "%s/%s", name, sch.name)
	for cycles < digestCycles {
		for i := range gatingOn {
			rng.burst(&gatingOn[i])
			rng.burst(&phOn[i])
		}
		g = cpu.Gating{FUs: sch.gate.FUs && gatingOn[0], DL1: sch.gate.DL1 && gatingOn[1], IL1: sch.gate.IL1 && gatingOn[2]}
		ph = power.Phantom{FUs: sch.phantom.FUs && phOn[0], DL1: sch.phantom.DL1 && phOn[1], IL1: sch.phantom.IL1 && phOn[2]}
		if sch.flush && rng.next()%512 == 0 {
			c.Flush(c.Config().BranchPenalty)
		}
		c.SetGating(g)
		done := c.StepInto(&act)
		r := m.Step(&act, ph)
		d.activity(&act)
		d.report(&r)
		cycles++
		if cycles%digestEvery == 0 {
			fmt.Fprintf(&b, " %d:%016x", cycles, uint64(d))
		}
		if done {
			break
		}
	}
	fmt.Fprintf(&b, " end@%d:%016x\n\tstats=%+v\n\tenergy=%016x err=%v\n",
		cycles, uint64(d), c.Stats(), math.Float64bits(m.TotalEnergy()), c.Err())
	return b.String()
}

// renderDigest runs every SPEC profile and the stressmark under every
// schedule.
func renderDigest(t *testing.T) []byte {
	type named struct {
		name string
		prog isa.Program
	}
	var progs []named
	for _, p := range workload.Profiles() {
		progs = append(progs, named{p.Name, workload.Generate(p)})
	}
	// Short enough to retire inside the window, so the drain and the
	// done path are covered too.
	progs = append(progs, named{"stressmark", workload.Stressmark(workload.StressmarkParams{Iterations: 300})})
	var buf bytes.Buffer
	for i, p := range progs {
		for j, sch := range digestSchedules {
			buf.WriteString(digestRun(t, p.name, p.prog, sch, uint64(1+i*len(digestSchedules)+j)))
		}
	}
	return buf.Bytes()
}

// TestMachineDigestGolden pins the machine half of the closed loop — the
// core's per-cycle Activity and the power model's per-cycle report, bit
// for bit — across commits. Every cycle of every run feeds a running
// digest; a line's checkpoints localize a divergence to an 8192-cycle
// window. A change meant to be exact (a faster core or power step) must
// pass without -update. After an intentional model change, regenerate with
//
//	go test ./internal/power -run TestMachineDigestGolden -update
//
// and explain the change in its description.
func TestMachineDigestGolden(t *testing.T) {
	got := renderDigest(t)
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
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
	t.Fatalf("machine digest differs from %s", digestGolden)
}
