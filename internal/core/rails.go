package core

import (
	"fmt"
	"math"

	"didt/internal/actuator"
	"didt/internal/control"
	"didt/internal/pdn"
	"didt/internal/power"
	"didt/internal/sensor"
	"didt/internal/spec"
)

// Rail assembly: every system runs on a pdn.Graph — one calibrated
// Network per delivery domain plus the cross-coupling matrix — and the
// power model's per-cycle current is split across the rails by delivery
// scope. A spec without a rails section is the one-rail graph: a single
// implicit whole-chip rail on the shared PDN params, which calibrates,
// steps and solves exactly like the one network it replaces. The public
// System.Net/System.Sim/System.Sensor fields point at rail 0.

// chipRail names the implicit whole-chip rail of a spec without a rails
// section.
const chipRail = "chip"

// railState is one delivery domain's runtime state.
type railState struct {
	name       string
	net        *pdn.Network
	sensor     *sensor.Sensor // nil when the rail is not sensed
	th         control.Thresholds
	iMin, iMax float64
	mask       power.ScopeMask
	vmin, vmax float64 // the rail's emergency band, hoisted out of the cycle loop

	level sensor.Level
	minV  float64
	maxV  float64
	emerg uint64
}

// RailResult summarizes one rail of a run.
type RailResult struct {
	Name          string
	IMin, IMax    float64 // rail calibration envelope (amperes)
	MinV, MaxV    float64 // observed after warmup
	Emergencies   uint64  // post-warmup cycles outside the rail's band
	EmergencyFreq float64
	Thresholds    control.Thresholds
}

// railSpecs resolves the spec's delivery domains and the power scopes each
// owns: its rails section, or the one implicit whole-chip rail.
func railSpecs(p spec.PDNSpec) ([]spec.RailSpec, []power.ScopeMask, error) {
	if len(p.Rails) == 0 {
		return []spec.RailSpec{{Name: chipRail, Params: p.Params, ImpedancePct: p.ImpedancePct}},
			[]power.ScopeMask{power.AllScopes}, nil
	}
	masks, err := p.RailScopeMasks()
	return p.Rails, masks, err
}

// buildRails assembles the rail graph: the chip's current envelope (the
// spec's override, else the saturation probe's), each rail's share of it,
// per-rail calibration, the coupled graph and its simulator, and per-rail
// sensors.
func (s *System) buildRails() error {
	sp := s.spec
	specs, masks, err := railSpecs(sp.PDN)
	if err != nil {
		return err
	}
	iMin, iMax := sp.PDN.EnvelopeIMin, sp.PDN.EnvelopeIMax
	var env envelope
	if iMin == 0 || iMax == 0 || len(specs) > 1 {
		// The probe memo keys on the as-given (pre-resolution) CPU/power
		// sections, so distinct sparse specs keep distinct entries even
		// when they resolve to the same configuration.
		if env, err = measureEnvelope(s.opts.Spec.CPU, s.opts.Spec.Power); err != nil {
			return err
		}
		if iMin == 0 {
			iMin = env.iMin
		}
		if iMax == 0 {
			iMax = env.iMax
		}
	}
	s.iMin, s.iMax = iMin, iMax

	sensed := func(name string) bool {
		if len(sp.Sensor.Rails) == 0 {
			return true
		}
		for _, n := range sp.Sensor.Rails {
			if n == name {
				return true
			}
		}
		return false
	}
	noise := sp.Sensor.NoiseMV * 1e-3
	seed := sp.Seed.Resolve(0)
	s.rails = make([]railState, len(specs))
	graphRails := make([]pdn.Rail, len(specs))
	for i, rs := range specs {
		// A rail feeding the whole chip uses the whole-chip envelope (p98
		// of the summed current, not the sum of per-scope p98s).
		ri, ra := iMin, iMax
		if masks[i] != power.AllScopes {
			ri, ra = 0, 0
			for sc := power.Scope(0); sc < power.NumScopes; sc++ {
				if masks[i].Has(sc) {
					ri += env.scopeMin[sc]
					ra += env.scopeMax[sc]
				}
			}
		}
		// The voltage regulator's reference point: it holds the supply at
		// exactly nominal for the midpoint current, so workload swings
		// produce the symmetric over- and under-shoots of the paper's
		// Figures 2 and 6 (an idle machine sits slightly above nominal, a
		// saturated one slightly below, and transients ring around both).
		params := rs.Params
		params.IFloor = 0.5 * (ri + ra)
		net, err := pdn.Calibrate(params, ri, ra, rs.ImpedancePct)
		if err != nil {
			return fmt.Errorf("core: rail %q: %w", rs.Name, err)
		}
		s.rails[i] = railState{
			name: rs.Name,
			net:  net,
			iMin: ri,
			iMax: ra,
			mask: masks[i],
			vmin: net.VMin(),
			vmax: net.VMax(),
			minV: math.Inf(1),
			maxV: math.Inf(-1),
		}
		if sensed(rs.Name) {
			// Each rail draws its noise from its own stream so per-rail
			// readings stay independent yet seed-deterministic.
			sen, err := sensor.New(sp.Sensor.DelayCycles, noise, seed+int64(i))
			if err != nil {
				return err
			}
			s.rails[i].sensor = sen
		}
		graphRails[i] = pdn.Rail{Name: rs.Name, Net: net}
	}
	matrix, err := sp.PDN.CouplingMatrix()
	if err != nil {
		return err
	}
	if s.graph, err = pdn.NewGraph(graphRails, matrix); err != nil {
		return err
	}
	s.gsim = s.graph.NewSimulator()
	s.Net, s.Sim, s.Sensor = s.rails[0].net, s.gsim.RailSim(0), s.rails[0].sensor
	s.scopeCur = make([]float64, power.NumScopes)
	s.railCur = make([]float64, len(s.rails))
	s.railVolt = make([]float64, len(s.rails))
	for sc := power.Scope(0); sc < power.NumScopes; sc++ {
		for i := range s.rails {
			if s.rails[i].mask.Has(sc) {
				s.railOf[sc] = i
				break
			}
		}
	}
	return nil
}

// solveThresholds solves each rail's thresholds against the actuator's
// authority over it and arms the rail's sensor. A whole-chip rail takes
// the responder's own envelope; a partial rail takes mech's scoped floor
// and ceiling (a partial rail never carries a code-level responder).
func (s *System) solveThresholds(mech actuator.Mechanism) error {
	sp := s.spec
	guard := sp.Sensor.GuardBandMV * 1e-3
	for i := range s.rails {
		r := &s.rails[i]
		var floor, ceil float64
		if r.mask == power.AllScopes {
			floor, ceil = s.responder.Envelope(s.Power)
		} else {
			// What gating can force this rail's scopes down to and phantom
			// firing up to, clamped into the rail's envelope: a rail the
			// mechanism cannot reach keeps a floor at its own maximum (no
			// authority), which the solver reports as unstable rather than
			// erroring out.
			floor = min(s.Power.ScopedGatedFloorCurrent(r.mask, mech.FUs, mech.DL1, mech.IL1), r.iMax)
			ceil = max(s.Power.ScopedPhantomCeilingCurrent(r.mask, mech.FUs, mech.DL1, mech.IL1), r.iMin)
		}
		th, err := control.NewSolver(r.net).Solve(control.Envelope{
			IMin: r.iMin, IMax: r.iMax,
			Floor: floor, Ceil: ceil,
			Settle: sp.Control.SettleCycles,
		}, sp.Sensor.DelayCycles)
		if err != nil {
			return fmt.Errorf("core: rail %q thresholds: %w", r.name, err)
		}
		// Guard-band for sensor error (Section 4.5): raise Low and lower
		// High by the guard band (defaulting to the noise amplitude) so a
		// worst-case misreading still triggers in time.
		if th.Stable {
			lo, hi := th.Low+guard, th.High-guard
			if lo >= hi {
				th.Stable = false
			} else {
				th.Low, th.High, th.SafeWindow = lo, hi, hi-lo
			}
		}
		if !th.Stable {
			// No guaranteed thresholds exist (e.g. FU-only actuation with
			// large delay). Run with maximally conservative trip points so
			// the instability is observable, as in Figure 17.
			p := r.net.Params()
			th.Low = p.VNominal - 0.25*(p.VNominal-r.net.VMin())
			th.High = p.VNominal + 0.25*(r.net.VMax()-p.VNominal)
			th.SafeWindow = th.High - th.Low
		}
		r.th = th
		if r.sensor != nil {
			if err := r.sensor.SetThresholds(th.Low, th.High); err != nil {
				return err
			}
		}
	}
	return nil
}

// railResults materializes the per-rail summaries for finish.
func (s *System) railResults() []RailResult {
	measured := uint64(0)
	if s.cycle > s.spec.Budget.WarmupCycles {
		measured = s.cycle - s.spec.Budget.WarmupCycles
	}
	out := make([]RailResult, len(s.rails))
	for i := range s.rails {
		r := &s.rails[i]
		rr := RailResult{
			Name:        r.name,
			IMin:        r.iMin,
			IMax:        r.iMax,
			MinV:        r.minV,
			MaxV:        r.maxV,
			Emergencies: r.emerg,
			Thresholds:  r.th,
		}
		if measured > 0 {
			rr.EmergencyFreq = float64(r.emerg) / float64(measured)
		}
		out[i] = rr
	}
	return out
}

// Rails exposes the per-rail networks and calibration envelopes for
// inspection tools (cmd/pdnexplore), in spec order; a spec without a
// rails section has the one whole-chip rail, "chip".
func (s *System) Rails() []RailInfo {
	out := make([]RailInfo, len(s.rails))
	for i := range s.rails {
		r := &s.rails[i]
		out[i] = RailInfo{
			Name:       r.name,
			Net:        r.net,
			IMin:       r.iMin,
			IMax:       r.iMax,
			Coupling:   s.graph.CouplingInto(i),
			Thresholds: r.th,
		}
	}
	return out
}

// RailInfo describes one assembled rail.
type RailInfo struct {
	Name       string
	Net        *pdn.Network
	IMin, IMax float64
	Coupling   []float64 // incoming coefficients, spec order; nil when uncoupled
	Thresholds control.Thresholds
}
