// Package pdn models the processor power-delivery network and computes the
// supply voltage seen by the die from a per-cycle current trace.
//
// The network itself is the second-order linear system of package linsys,
// configured the way the paper configures it (Section 2.2): DC resistance
// 0.5 mΩ, resonant frequency 50 MHz, nominal supply 1.0 V, 3 GHz CPU clock
// (so the resonant period is 60 CPU cycles). The supply voltage is
//
//	V[n] = Vnom - y[n],  y[n] = sum_{k<M} h[k] * x[n-k],  x = I - Ifloor
//
// where h is the impulse response sampled and truncated to M taps by
// linsys.SampleImpulse, and Ifloor is the current level at which the
// voltage regulator holds the supply at exactly Vnom (the paper assumes
// the regulator nulls the drop at minimum processor power).
//
// # One O(1) kernel
//
// Tap k is Step((k+1)dt) - Step(k dt) of the analytic step response, a
// constant plus a damped sinusoid, so the taps obey the recurrence of the
// sampled pole pair r·e^{±jθ} (r = e^{-α dt}, θ = ω_d dt):
//
//	h[k] = a1·h[k-1] - a2·h[k-2]  for k >= 2,  a1 = 2r·cos θ, a2 = r².
//
// Multiplying the tap polynomial H(z) = sum_{k<M} h[k] z⁻ᵏ by
// D(z) = 1 - a1·z⁻¹ + a2·z⁻² therefore cancels every term at lags
// 2..M-1, leaving the head of the response and the two lags where the
// truncation cuts it off:
//
//	D(z)·H(z) = b0 + b1·z⁻¹ + bM·z⁻ᴹ + bM1·z⁻ᴹ⁻¹
//	b0 = h[0]                    b1  = h[1] - a1·h[0]
//	bM = -(a1·h[M-1] - a2·h[M-2])  bM1 = a2·h[M-1]
//
// So the truncated convolution is exactly the recurrence
//
//	y[n] = a1·y[n-1] - a2·y[n-2] + b0·x[n] + b1·x[n-1] + bM·x[n-M] + bM1·x[n-M-1]
//
// six multiply-adds per cycle whatever M is; the only history kept beyond
// two outputs and one input is a ring of inputs for x[n-M] and x[n-M-1].
// The coefficients are computed as the terms of D(z)·H(z) with the taps
// zero outside [0, M), which also covers short kernels (max_kernel_len 1
// or a loose trunc_rel_tol): at M = 2 the formulas above apply as
// written, and at M = 1 lag M is lag 1, whose whole term -a1·h[0] is b1
// (bM = 0, bM1 = a2·h[0]). The truncated FIR itself survives only as a
// test oracle.
//
// Network is immutable after construction; Simulator carries the mutable
// recurrence state so that one Network can serve many concurrent runs.
package pdn

import (
	"fmt"
	"math"

	"didt/internal/linsys"
	"didt/internal/sim"
	"didt/internal/telemetry"
)

// Paper-reference constants (Section 2.2 and Table 1).
const (
	DefaultClockHz      = 3e9    // 3 GHz CPU clock
	DefaultResonantHz   = 50e6   // package resonance
	DefaultDCResistance = 0.5e-3 // 0.5 mOhm
	DefaultVNominal     = 1.0    // volts
	DefaultTolerance    = 0.05   // +-5% emergency band
)

// Params describes a power delivery network plus the electrical environment
// it serves.
type Params struct {
	ClockHz      float64 // CPU clock; sets the convolution sample interval
	ResonantHz   float64 // PDN resonant frequency
	DCResistance float64 // ohms
	PeakZ        float64 // peak (target-relative) impedance, ohms
	VNominal     float64 // nominal supply voltage
	Tolerance    float64 // allowed fractional deviation (0.05 = +-5%)
	IFloor       float64 // amperes at which regulator holds exactly VNominal

	// TruncRelTol controls impulse-response truncation: sampling stops when
	// the response envelope decays below this fraction of its initial
	// value. Zero selects 1e-6.
	TruncRelTol float64
	// MaxKernelLen caps the sampled kernel length. Zero selects 4096.
	MaxKernelLen int
}

// WithDefaults fills zero fields from the paper-reference constants. The
// spec layer resolves the PDN section of a RunSpec through this; New and
// Calibrate apply it again idempotently for direct users.
func (p Params) WithDefaults() Params {
	if p.ClockHz == 0 {
		p.ClockHz = DefaultClockHz
	}
	if p.ResonantHz == 0 {
		p.ResonantHz = DefaultResonantHz
	}
	if p.DCResistance == 0 {
		p.DCResistance = DefaultDCResistance
	}
	if p.VNominal == 0 {
		p.VNominal = DefaultVNominal
	}
	if p.Tolerance == 0 {
		p.Tolerance = DefaultTolerance
	}
	if p.TruncRelTol == 0 {
		p.TruncRelTol = 1e-6
	}
	if p.MaxKernelLen == 0 {
		p.MaxKernelLen = 4096
	}
	return p
}

// Network is an immutable, sampled PDN ready for voltage simulation.
type Network struct {
	params Params
	sys    *linsys.SecondOrder
	k      kernel
}

// kernel is the truncated impulse response in recurrence form: the M taps
// h[0..M-1] of linsys.SampleImpulse, reduced to the six coefficients of
//
//	y[n] = a1·y[n-1] - a2·y[n-2] + b0·x[n] + b1·x[n-1] + bM·x[n-M] + bM1·x[n-M-1]
//
// (see the package doc for the derivation). Immutable; computed once per
// distinct Params and shared through kernelCache.
type kernel struct {
	m               int     // truncation length M in taps
	a1, a2          float64 // sampled pole pair: 2r·cos θ and r²
	b0, b1, bM, bM1 float64 // numerator taps at lags 0, 1, M and M+1
}

// newKernel samples the impulse response and folds it into recurrence
// coefficients. Each coefficient is the matching term of
// (1 - a1·z⁻¹ + a2·z⁻²)·Σ h[k]·z⁻ᵏ with the taps zero outside [0, M); the
// terms at lags 2..M-1 vanish because the taps obey the pole recurrence.
// For M = 1, lag M is lag 1 and its whole term is already in b1.
func newKernel(sys *linsys.SecondOrder, p Params) (kernel, error) {
	dt := 1 / p.ClockHz
	h := sys.SampleImpulse(dt, p.TruncRelTol, p.MaxKernelLen)
	if len(h) == 0 {
		return kernel{}, fmt.Errorf("pdn: empty impulse-response kernel")
	}
	m := len(h)
	a1, a2 := sys.DiscretePoles(dt)
	tap := func(i int) float64 {
		if i < 0 || i >= m {
			return 0
		}
		return h[i]
	}
	c := func(lag int) float64 { return tap(lag) - a1*tap(lag-1) + a2*tap(lag-2) }
	k := kernel{m: m, a1: a1, a2: a2, b0: c(0), b1: c(1), bM1: c(m + 1)}
	if m >= 2 {
		k.bM = c(m)
	}
	return k, nil
}

// sampled pairs the derived artifacts a Network shares with every other
// Network built from the same parameters: the analytic system and its
// recurrence kernel. Both are immutable after construction.
type sampled struct {
	sys *linsys.SecondOrder
	k   kernel
}

// kernelCache memoizes kernel construction across Networks. A sweep
// recalibrates the same handful of (envelope, impedance) points hundreds
// of times, and re-deriving the analytic system (linsys.FromPeak's
// bisection) and re-sampling the taps each run dominated Network
// construction. The key is the fingerprint of the resolved (calibrated)
// Params — the same sub-hash that section contributes to
// spec.RunSpec.Key — and construction is a pure function of the params,
// so cached and fresh kernels are bit-identical.
var kernelCache = sim.NewCache[string, sampled](512)

func init() {
	kernelCache.RegisterMetrics(telemetry.Default(), "cache.pdn_kernel")
	sim.RegisterCacheCapacity("pdn_kernel", 512, kernelCache.SetCapacity)
}

// ResetKernelCache empties the shared kernel cache (benchmarks use it to
// measure cold-start cost).
func ResetKernelCache() { kernelCache.Reset() }

// KernelCacheStats reports the shared kernel cache's effectiveness (hits,
// misses, evictions, residency).
func KernelCacheStats() sim.CacheStats { return kernelCache.Stats() }

// New constructs a Network. Zero-valued Params fields take the paper's
// defaults; PeakZ must be positive (use Calibrate to derive it from a
// current envelope).
func New(p Params) (*Network, error) {
	p = p.WithDefaults()
	if p.PeakZ <= 0 {
		return nil, fmt.Errorf("pdn: PeakZ must be positive (got %g); use Calibrate", p.PeakZ)
	}
	sk, err := kernelCache.Get(sim.Fingerprint(p), func() (sampled, error) {
		sys, err := linsys.FromPeak(p.DCResistance, p.ResonantHz, p.PeakZ)
		if err != nil {
			return sampled{}, fmt.Errorf("pdn: %w", err)
		}
		k, err := newKernel(sys, p)
		if err != nil {
			return sampled{}, err
		}
		return sampled{sys: sys, k: k}, nil
	})
	if err != nil {
		return nil, err
	}
	telemetry.Default().Counter("pdn.networks_built_total").Inc()
	return &Network{params: p, sys: sk.sys, k: sk.k}, nil
}

// Calibrate sets the network's peak impedance from the de facto target-
// impedance rule the paper describes in Section 2.1: the target impedance
// is the value that keeps the voltage within its allowed range for the
// maximum current swing,
//
//	Z_target = (Tolerance * VNominal) / (iMax - iMin).
//
// impedancePct then scales it: 1.0 reproduces the 100% column of Table 2
// (the network meets spec), 2.0 the cheaper 200% network, and so on.
// Note the resonant worst case stays comfortably inside the band at 100%
// (the square wave's fundamental carries 4/pi of half the swing), which is
// why Table 2's leftmost column has zero emergencies by definition while
// the 200% network is where the stressmark begins to break through.
func Calibrate(p Params, iMin, iMax, impedancePct float64) (*Network, error) {
	p = p.WithDefaults()
	if iMax <= iMin {
		return nil, fmt.Errorf("pdn: iMax (%g) must exceed iMin (%g)", iMax, iMin)
	}
	if impedancePct <= 0 {
		return nil, fmt.Errorf("pdn: impedancePct must be positive (got %g)", impedancePct)
	}
	zTarget := p.Tolerance * p.VNominal / (iMax - iMin)
	p.PeakZ = zTarget * impedancePct
	telemetry.Default().Counter("pdn.calibrations_total").Inc()
	if p.PeakZ <= p.DCResistance {
		return nil, fmt.Errorf("pdn: target impedance %.3gmΩ does not exceed DC resistance %.3gmΩ; reduce DCResistance or the current envelope", p.PeakZ*1e3, p.DCResistance*1e3)
	}
	return New(p)
}

// Params returns the parameters the network was built with (PeakZ reflects
// any calibration).
func (n *Network) Params() Params { return n.params }

// System exposes the underlying second-order model.
func (n *Network) System() *linsys.SecondOrder { return n.sys }

// KernelLen reports the truncated impulse-response length M in cycles.
func (n *Network) KernelLen() int { return n.k.m }

// ResonantPeriodCycles returns the resonant period expressed in CPU cycles,
// rounded to the nearest integer (60 for the paper's defaults).
func (n *Network) ResonantPeriodCycles() int {
	return int(math.Round(n.params.ClockHz / n.params.ResonantHz))
}

// VMin and VMax return the emergency boundaries.
func (n *Network) VMin() float64 { return n.params.VNominal * (1 - n.params.Tolerance) }
func (n *Network) VMax() float64 { return n.params.VNominal * (1 + n.params.Tolerance) }

// VoltageTrace convolves an entire current trace (amperes per cycle) and
// returns the per-cycle supply voltage. It is a convenience for offline
// analysis; closed-loop simulation uses Simulator.
func (n *Network) VoltageTrace(current []float64) []float64 {
	out := make([]float64, len(current))
	n.ConvolveVoltages(out, current)
	return out
}

// ConvolveVoltages computes the supply voltage for an entire current trace
// at once, writing into dst (which must have length >= len(current)). dst
// may be current itself but must not otherwise overlap it. The voltages
// are bit-identical to stepping a fresh Simulator through the trace: the
// same recurrence runs, with the history before the trace quiescent
// (I = IFloor, V = VNominal). Only the source of the delayed inputs
// x[n-M] and x[n-M-1] differs — the trace itself, or a Simulator's ring
// when the trace is being overwritten in place.
func (n *Network) ConvolveVoltages(dst, current []float64) {
	if len(current) == 0 {
		return
	}
	if &dst[0] == &current[0] {
		s := n.NewSimulator()
		for i, c := range current {
			dst[i] = s.Step(c)
		}
		return
	}
	s := Simulator{net: n}
	m, ifloor := n.k.m, n.params.IFloor
	for i, c := range current {
		var xM, xM1 float64
		if i >= m {
			xM = current[i-m] - ifloor
		}
		if i > m {
			xM1 = current[i-m-1] - ifloor
		}
		dst[i] = s.advance(c-ifloor, xM, xM1)
	}
}

// WorstCaseDeviation drives the network with a sustained square wave
// between iMin and iMax at the resonant period and returns the maximum
// absolute deviation from nominal once the waveform has built up (it
// simulates long enough for transients to saturate).
func (n *Network) WorstCaseDeviation(iMin, iMax float64) float64 {
	period := n.ResonantPeriodCycles()
	if period < 2 {
		period = 2
	}
	cycles := n.k.m + 20*period
	sim := n.NewSimulator()
	worst := 0.0
	for c := 0; c < cycles; c++ {
		cur := iMin
		if c%period < period/2 {
			cur = iMax
		}
		v := sim.Step(cur)
		if d := math.Abs(v - n.params.VNominal); d > worst {
			worst = d
		}
	}
	return worst
}

// Simulator carries the mutable recurrence state for one run. It is not
// safe for concurrent use; create one per goroutine.
type Simulator struct {
	net    *Network
	y1, y2 float64   // voltage drop at n-1 and n-2
	x1     float64   // input deviation (I - IFloor) at n-1
	hist   []float64 // ring of the last M+2 input deviations
	pos    int       // ring slot of x[n]; x[n-M-1] and x[n-M] follow it
	n      int       // cycles processed
}

// NewSimulator creates a fresh streaming voltage simulator whose history is
// all at IFloor (quiescent, V = VNominal).
func (n *Network) NewSimulator() *Simulator {
	return &Simulator{net: n, hist: make([]float64, n.k.m+2)}
}

// Release marks the simulator as finished; it must not be used
// afterwards. It holds nothing but its own memory, so Release only drops
// the ring for the garbage collector.
func (s *Simulator) Release() { s.hist = nil }

// Step advances one CPU cycle with the given load current (amperes) and
// returns the supply voltage at this cycle: six multiply-adds, whatever
// the kernel length.
//
//didt:hotpath
func (s *Simulator) Step(current float64) float64 {
	x := current - s.net.params.IFloor
	xM, xM1 := s.tail()
	s.hist[s.pos] = x
	if s.pos++; s.pos == len(s.hist) {
		s.pos = 0
	}
	return s.advance(x, xM, xM1)
}

// Peek returns the voltage that would result if the given current were
// applied this cycle, without committing it. Controllers use this for
// lookahead analysis in tests; the closed loop itself never peeks.
//
//didt:hotpath
func (s *Simulator) Peek(current float64) float64 {
	xM, xM1 := s.tail()
	return s.net.params.VNominal - s.drop(current-s.net.params.IFloor, xM, xM1)
}

// tail returns the delayed inputs x[n-M] and x[n-M-1] for the cycle about
// to be stepped: the ring holds x[n-M-1..n-1] in the M+1 slots after pos.
//
//didt:hotpath
func (s *Simulator) tail() (xM, xM1 float64) {
	i := s.pos + 1
	if i == len(s.hist) {
		i = 0
	}
	xM1 = s.hist[i]
	if i++; i == len(s.hist) {
		i = 0
	}
	return s.hist[i], xM1
}

// drop evaluates the recurrence for input deviation x at this cycle. Step,
// Peek and ConvolveVoltages all go through it, so they agree to the bit.
//
//didt:hotpath
func (s *Simulator) drop(x, xM, xM1 float64) float64 {
	k := &s.net.k
	return k.b0*x + k.b1*s.x1 + k.bM*xM + k.bM1*xM1 + k.a1*s.y1 - k.a2*s.y2
}

// advance commits one cycle with input deviation x and returns its supply
// voltage.
//
//didt:hotpath
func (s *Simulator) advance(x, xM, xM1 float64) float64 {
	y := s.drop(x, xM, xM1)
	s.x1, s.y2, s.y1 = x, s.y1, y
	s.n++
	return s.net.params.VNominal - y
}

// Cycles reports how many cycles have been simulated.
func (s *Simulator) Cycles() int { return s.n }

// Reset returns the simulator to the quiescent state.
func (s *Simulator) Reset() {
	clear(s.hist)
	*s = Simulator{net: s.net, hist: s.hist}
}
