package pdn

import (
	"math"
	"math/rand"
	"testing"
)

// fir is the test-only oracle the recurrence replaces: the truncated
// convolution sum_k h[k]·x[n-k] over the linsys.SampleImpulse taps,
// evaluated term by term against the whole input history.
type fir struct {
	net  *Network
	taps []float64
	x    []float64 // every input deviation so far, oldest first
}

func newFIR(t *testing.T, n *Network) *fir {
	t.Helper()
	p := n.Params()
	taps := n.System().SampleImpulse(1/p.ClockHz, p.TruncRelTol, p.MaxKernelLen)
	if len(taps) != n.KernelLen() {
		t.Fatalf("oracle has %d taps, network M=%d", len(taps), n.KernelLen())
	}
	return &fir{net: n, taps: taps}
}

// history returns sum_{k>=1} h[k]·x[n-k] for the cycle about to be stepped.
func (f *fir) history() float64 {
	acc := 0.0
	for k := 1; k < len(f.taps) && k <= len(f.x); k++ {
		acc += f.taps[k] * f.x[len(f.x)-k]
	}
	return acc
}

// voltage is the oracle's supply voltage if current is applied at this
// cycle on top of the given history sum.
func (f *fir) voltage(hist, current float64) float64 {
	p := f.net.Params()
	return p.VNominal - (hist + f.taps[0]*(current-p.IFloor))
}

func (f *fir) push(current float64) { f.x = append(f.x, current-f.net.Params().IFloor) }

// oracleCurrents returns the two stimulus shapes of the oracle test: a
// square wave between 10 A and 60 A at the resonant period, and seeded
// uniform random current in the same range.
func oracleCurrents(n *Network, cycles int, seed int64) []stimulus {
	period := n.ResonantPeriodCycles()
	square := make([]float64, cycles)
	random := make([]float64, cycles)
	rng := rand.New(rand.NewSource(seed))
	for i := range square {
		square[i] = 10
		if i%period < period/2 {
			square[i] = 60
		}
		random[i] = 10 + 50*rng.Float64()
	}
	return []stimulus{{"resonant-square", square}, {"random", random}}
}

type stimulus struct {
	name string
	cur  []float64
}

// checkAgainstFIR drives Step, Peek and ConvolveVoltages with the trace
// and requires each to stay within 1e-12 V of the naive FIR at every
// cycle.
func checkAgainstFIR(t *testing.T, name string, n *Network, cur []float64) {
	t.Helper()
	const tol = 1e-12
	f := newFIR(t, n)
	f.x = make([]float64, 0, len(cur))
	conv := n.VoltageTrace(cur)
	sim := n.NewSimulator()
	defer sim.Release()
	worst := 0.0
	check := func(what string, i int, got, want float64) {
		d := math.Abs(got - want)
		if d > tol {
			t.Fatalf("%s M=%d cycle %d: %s = %.17g, FIR = %.17g (|Δ| = %.3g V)", name, n.KernelLen(), i, what, got, want, d)
		}
		worst = math.Max(worst, d)
	}
	for i, c := range cur {
		hist := f.history()
		probe := 10 + 50*float64(i%7)/6
		check("Peek", i, sim.Peek(probe), f.voltage(hist, probe))
		want := f.voltage(hist, c)
		check("Step", i, sim.Step(c), want)
		check("ConvolveVoltages", i, conv[i], want)
		f.push(c)
	}
	t.Logf("%s M=%d: %d cycles, max |Δ| = %.3g V", name, n.KernelLen(), len(cur), worst)
}

// TestRecurrenceMatchesFIR is the oracle contract of the O(1) kernel: over
// 200k cycles at 100/200/400% impedance, for a resonant square wave and
// for seeded random current, Step, Peek and ConvolveVoltages all stay
// within 1e-12 V of the truncated FIR they replace.
func TestRecurrenceMatchesFIR(t *testing.T) {
	const cycles = 200_000
	for _, pct := range []float64{1, 2, 4} {
		n := mustCalibrated(t, pct)
		for _, st := range oracleCurrents(n, cycles, int64(pct*100)) {
			checkAgainstFIR(t, st.name, n, st.cur)
		}
	}
}

// TestRecurrenceShortKernels covers the kernels too short for the
// general-M formulas — M = 1, 2 and 3, reached through MaxKernelLen and
// through a TruncRelTol of 1 or more, both of which spec.Validate accepts
// — against the same FIR oracle.
func TestRecurrenceShortKernels(t *testing.T) {
	base := mustCalibrated(t, 2).Params()
	cases := []struct {
		name string
		p    Params
		m    int
	}{
		{"max_kernel_len=1", Params{MaxKernelLen: 1}, 1},
		{"max_kernel_len=2", Params{MaxKernelLen: 2}, 2},
		{"max_kernel_len=3", Params{MaxKernelLen: 3}, 3},
		{"trunc_rel_tol=1", Params{TruncRelTol: 1}, 1},
		{"trunc_rel_tol=5", Params{TruncRelTol: 5}, 1},
	}
	for _, tc := range cases {
		p := tc.p
		p.PeakZ, p.IFloor = base.PeakZ, base.IFloor
		n, err := New(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n.KernelLen() != tc.m {
			t.Fatalf("%s: M = %d, want %d", tc.name, n.KernelLen(), tc.m)
		}
		for _, st := range oracleCurrents(n, 5000, 7) {
			checkAgainstFIR(t, tc.name+"/"+st.name, n, st.cur)
		}
	}
}

// TestPeekMatchesNaiveReference pins Peek against the naive FIR at every
// ring position through two full wraps, with a probe current that differs
// from the one then stepped, so Peek cannot pass by echoing Step.
func TestPeekMatchesNaiveReference(t *testing.T) {
	n := mustCalibrated(t, 2)
	f := newFIR(t, n)
	sim := n.NewSimulator()
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 2*(n.KernelLen()+2)+10; c++ {
		probe := 10 + 50*rng.Float64()
		want := f.voltage(f.history(), probe)
		if got := sim.Peek(probe); math.Abs(got-want) > 1e-12 {
			t.Fatalf("cycle %d (pos %d): Peek=%.17g naive=%.17g", c, sim.pos, got, want)
		}
		cur := 10 + 50*rng.Float64()
		sim.Step(cur)
		f.push(cur)
	}
}

// TestConvolveVoltagesMatchesStreaming: random RLC parameters, truncation
// lengths and trace lengths around the kernel length must give voltages
// bit-identical (==) to stepping a fresh Simulator — including when dst
// is the current slice itself.
func TestConvolveVoltagesMatchesStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		p := Params{
			ClockHz:      2e9 + 2e9*rng.Float64(),
			ResonantHz:   30e6 + 70e6*rng.Float64(),
			DCResistance: (0.3 + 0.5*rng.Float64()) * 1e-3,
			IFloor:       5 + 10*rng.Float64(),
			TruncRelTol:  []float64{1e-6, 1e-4, 1e-3}[trial%3],
			MaxKernelLen: []int{4096, 512, 128}[trial%3],
		}
		net, err := Calibrate(p, p.IFloor, p.IFloor+40+20*rng.Float64(), 1+3*rng.Float64())
		if err != nil {
			t.Fatalf("trial %d: Calibrate: %v", trial, err)
		}
		m := net.KernelLen()
		for _, length := range []int{1, m - 1, m, m + 1, m + 2, 3*m + 37} {
			if length < 1 {
				continue
			}
			cur := make([]float64, length)
			for i := range cur {
				cur[i] = p.IFloor + 50*rng.Float64()
			}
			want := make([]float64, length)
			ref := net.NewSimulator()
			for i, c := range cur {
				want[i] = ref.Step(c)
			}
			ref.Release()
			got := make([]float64, length)
			net.ConvolveVoltages(got, cur)
			inPlace := append([]float64(nil), cur...)
			net.ConvolveVoltages(inPlace, inPlace)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d m=%d len=%d cycle %d: ConvolveVoltages %v != Step %v", trial, m, length, i, got[i], want[i])
				}
				if inPlace[i] != want[i] {
					t.Fatalf("trial %d m=%d len=%d cycle %d: in-place ConvolveVoltages %v != Step %v", trial, m, length, i, inPlace[i], want[i])
				}
			}
		}
	}
}

// TestConvolveVoltagesMatchesLinsys pins the kernel against the analytic
// step response: for a current step of height dI applied at cycle 0, the
// voltage drop at cycle c is dI * StepResponse((c+1)*dt) exactly (kernel
// tap k is the step-response increment over [k*dt, (k+1)*dt], so the taps
// telescope). Comparison stops at the kernel length, where truncation
// starts — within it, the only error is round-off.
func TestConvolveVoltagesMatchesLinsys(t *testing.T) {
	n := mustCalibrated(t, 2)
	p := n.Params()
	dI := 35.0
	length := n.KernelLen() + 200
	cur := make([]float64, length)
	for i := range cur {
		cur[i] = p.IFloor + dI
	}
	got := make([]float64, length)
	n.ConvolveVoltages(got, cur)
	dt := 1 / p.ClockHz
	worst := 0.0
	for c := 0; c < n.KernelLen(); c++ {
		want := p.VNominal - dI*n.System().Step(float64(c+1)*dt)
		if d := math.Abs(got[c] - want); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Errorf("max |recurrence-analytic| = %g over first %d cycles", worst, n.KernelLen())
	}
}

func TestHotPathsZeroAlloc(t *testing.T) {
	n := mustCalibrated(t, 2)
	sim := n.NewSimulator()
	if a := testing.AllocsPerRun(100, func() { sim.Step(40); sim.Peek(55) }); a != 0 {
		t.Errorf("Simulator.Step/Peek allocate %v per run; want 0", a)
	}
	cur := make([]float64, 3*n.KernelLen())
	dst := make([]float64, len(cur))
	for i := range cur {
		cur[i] = 40
	}
	n.ConvolveVoltages(dst, cur)
	if a := testing.AllocsPerRun(10, func() { n.ConvolveVoltages(dst, cur) }); a != 0 {
		t.Errorf("warm ConvolveVoltages allocates %v per run; want 0", a)
	}
}

func benchNet(b *testing.B) *Network {
	b.Helper()
	n, err := Calibrate(Params{IFloor: 10}, 10, 60, 2)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkStep is the ci.sh allocation gate for the streaming kernel.
func BenchmarkStep(b *testing.B) {
	n := benchNet(b)
	sim := n.NewSimulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(40)
	}
}

// BenchmarkConvolve is the ci.sh allocation gate for the whole-trace path,
// on a quick-sweep-sized trace (90k cycles); divide by 90000 to compare
// per cycle against BenchmarkStep.
func BenchmarkConvolve(b *testing.B) {
	n := benchNet(b)
	cur := make([]float64, 90000)
	for i := range cur {
		cur[i] = 10 + float64(i%50)
	}
	dst := make([]float64, len(cur))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ConvolveVoltages(dst, cur)
	}
}
