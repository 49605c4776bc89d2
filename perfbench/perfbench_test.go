package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"didt/internal/spec"
	"didt/internal/telemetry"
)

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := simulateList(7), simulateList(7); !reflect.DeepEqual(a, b) {
		t.Fatal("simulate: the same seed gave different run lists")
	}
	if reflect.DeepEqual(simulateList(7), simulateList(8)) {
		t.Fatal("simulate: different seeds gave the same run list")
	}
	// Every workload runs once at each impedance and once with each
	// mechanism.
	seen := map[string]bool{}
	for _, sp := range simulateList(7) {
		for _, k := range []string{
			fmt.Sprintf("%s z%g", sp.Workload.Name, sp.PDN.ImpedancePct),
			fmt.Sprintf("%s %s", sp.Workload.Name, sp.Actuator.Mechanism),
		} {
			if seen[k] {
				t.Fatalf("simulate: %s appears twice", k)
			}
			seen[k] = true
		}
	}
	if want := 2 * len(simPool()) * len(simImpedances); len(seen) != want {
		t.Fatalf("simulate: %d workload/impedance and workload/mechanism pairs, want %d", len(seen), want)
	}
	a, b := planServe(7, 25), planServe(7, 25)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serve: the same seed gave different specs or schedules")
	}
	if reflect.DeepEqual(a, planServe(8, 25)) {
		t.Fatal("serve: different seeds gave the same plan")
	}
}

func TestServeClassMix(t *testing.T) {
	counts := map[string]int{}
	plan := planServe(3, 25)
	lastEngine := time.Duration(-1)
	for i, a := range plan.Schedule {
		counts[a.Class]++
		if i > 0 && a.Due < plan.Schedule[i-1].Due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if a.Class == classHit || a.Class == classNotModified {
			continue
		}
		if lastEngine >= 0 && a.Due-lastEngine < engineGap {
			t.Fatalf("engine arrival %d due %v after the previous one, want at least %v", i, a.Due-lastEngine, engineGap)
		}
		lastEngine = a.Due
	}
	n := serveRate * 25
	for _, m := range serveMix {
		if want := int(m.share*n + 0.5); counts[m.class] != want {
			t.Errorf("class %s: %d arrivals, want %d", m.class, counts[m.class], want)
		}
	}
	// The mix is fixed; only the order and the specs depend on the seed.
	other := map[string]int{}
	for _, a := range planServe(4, 25).Schedule {
		other[a.Class]++
	}
	if !reflect.DeepEqual(counts, other) {
		t.Errorf("class counts depend on the seed: %v vs %v", counts, other)
	}
}

// Every seed asks the engine for the same new runs in each class; only
// their order, arrival times and spec seeds depend on the seed.
func TestServeEngineMixFixed(t *testing.T) {
	mix := func(seed int64) map[string]int {
		m := map[string]int{}
		for _, a := range planServe(seed, 30).Schedule {
			var sp spec.RunSpec
			switch a.Class {
			case classCold, classCoalesced:
				sp = a.Specs[0]
			case classBatch:
				sp = a.Specs[2]
			default:
				continue
			}
			m[fmt.Sprintf("%s %s z%g control=%v %s d%d", a.Class, sp.Workload.Name,
				sp.PDN.ImpedancePct, sp.Control.Enabled, sp.Actuator.Mechanism, sp.Sensor.DelayCycles)]++
		}
		return m
	}
	a := mix(5)
	if b := mix(6); !reflect.DeepEqual(a, b) {
		t.Fatalf("the engine runs depend on the seed:\n%v\n%v", a, b)
	}
	open := 0
	for k, n := range a {
		if strings.Contains(k, "control=false") {
			open += n
		}
	}
	if want := int(serveMix[0].share*serveRate*30+0.5) / 4; open != want {
		t.Errorf("%d cold specs without the controller, want %d", open, want)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 75); got != 4 {
		t.Errorf("p75 = %g, want 4", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("p50 of {1,2} = %g, want 1.5", got)
	}
}

// TestOpenLoopTimesFromDue sends three arrivals due at once over two
// connections: the third must wait for a connection, and its latency must
// include that wait.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 40 * time.Millisecond
	sched := []arrival{{Class: classHit}, {Class: classHit}, {Class: classHit}}
	ss := runOpenLoop(sched, 2, func(a arrival, conn []int) ([]sample, []time.Time) {
		time.Sleep(service)
		return []sample{{class: a.Class}}, []time.Time{time.Now()}
	})
	if len(ss) != 3 {
		t.Fatalf("%d samples, want 3", len(ss))
	}
	var slow int
	for _, s := range ss {
		if s.latency < service {
			t.Errorf("latency %v below the service time", s.latency)
		}
		if s.latency >= 2*service {
			slow++
			if s.late < service {
				t.Errorf("queued request late by %v, want at least %v", s.late, service)
			}
		}
	}
	if slow != 1 {
		t.Errorf("%d requests waited for a connection, want 1", slow)
	}
}

// TestOpenLoopCoalescedTakesBothConnections checks that a coalesced
// arrival holds both connections, so the arrival behind it waits.
func TestOpenLoopCoalescedTakesBothConnections(t *testing.T) {
	const service = 40 * time.Millisecond
	sched := []arrival{{Class: classCoalesced}, {Class: classHit}}
	ss := runOpenLoop(sched, 2, func(a arrival, conn []int) ([]sample, []time.Time) {
		time.Sleep(service)
		out := make([]sample, len(conn))
		done := make([]time.Time, len(conn))
		for i := range out {
			out[i] = sample{class: a.Class}
			done[i] = time.Now()
		}
		return out, done
	})
	for _, s := range ss {
		if s.class == classHit && s.latency < 2*service {
			t.Errorf("hit behind a coalesced pair took %v, want at least %v", s.latency, 2*service)
		}
	}
	if len(ss) != 3 {
		t.Fatalf("%d samples, want 3", len(ss))
	}
}

func TestCheckTable2Column(t *testing.T) {
	ok := "== table2 ==\n" +
		"                           100%  200%\n" +
		"--------------------------------------\n" +
		"benchmarks w/ emergencies  0     1\n" +
		"stressmark freq            0     5%\n" +
		"note: x\n\n" +
		"benchmark  100%  200%\n" +
		"---------------------\n" +
		"swim       0     0.15%\n\n" +
		"== fig14 ==\n100%  200%\n---\nrow 7 7\n"
	if err := checkTable2Column(ok); err != nil {
		t.Fatalf("clean table rejected: %v", err)
	}
	bad := "== table2 ==\n" +
		"benchmark  100%  200%\n" +
		"---------------------\n" +
		"swim       0.1%  0\n"
	if checkTable2Column(bad) == nil {
		t.Fatal("a non-zero 100% entry was accepted")
	}
	if checkTable2Column("== fig14 ==\n") == nil {
		t.Fatal("a missing table2 section was accepted")
	}
}

func TestHistMean(t *testing.T) {
	before := telemetry.HistogramSnapshot{Count: 2, Mean: 10}
	after := telemetry.HistogramSnapshot{Count: 4, Mean: 25}
	// Two new observations summing to 100 - 20 = 80.
	if got := histMean(before, after); got != 40 {
		t.Errorf("histMean = %g, want 40", got)
	}
	if got := histMean(after, after); got != 0 {
		t.Errorf("histMean with no new observations = %g, want 0", got)
	}
}
