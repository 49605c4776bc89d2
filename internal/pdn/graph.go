// Rail graph: the multi-domain generalization of Network. A Graph holds N
// named delivery domains — each its own calibrated Network with its own
// recurrence kernel — plus a cross-coupling matrix that injects a fraction
// of each domain's current transient into its neighbors' inputs:
//
//	eff_i[n] = I_i[n] + sum_{j != i} K[i][j] * (I_j[n] - IFloor_j)
//
// so rail i's voltage is V_i[n] = Vnom_i - sum_k h_i[k]*(eff_i[n-k] -
// IFloor_i). With every rail at its floor the injected transients vanish
// and all rails sit at nominal, exactly like the quiescent single-rail
// network. Coupling only shapes each rail's input; every rail then runs its
// own Network's recurrence. The single-rail Network is the 1-node graph,
// and on that degenerate graph — or any graph with an all-zero matrix —
// the step and whole-trace paths delegate straight to the underlying
// Network, so the output is bit-identical (`==`) to using the Network
// directly, not merely close.
package pdn

import "fmt"

// Rail is one named delivery domain of a Graph.
type Rail struct {
	Name string
	Net  *Network
}

// Graph is an immutable set of rails plus their cross-coupling matrix.
// Like Network it is safe for concurrent use; GraphSimulator carries the
// per-run mutable state.
type Graph struct {
	rails    []Rail
	coupling [][]float64 // coupling[to][from]; nil when the graph is uncoupled
	floors   []float64   // per-rail IFloor, hoisted out of the step loop
	coupled  bool        // any nonzero off-diagonal coefficient
}

// NewGraph builds a rail graph. coupling may be nil (independent rails) or
// an NxN matrix where coupling[i][j] is the fraction of rail j's current
// transient injected into rail i's input; the diagonal must be zero and
// every coefficient must lie in [0, 1).
func NewGraph(rails []Rail, coupling [][]float64) (*Graph, error) {
	if len(rails) == 0 {
		return nil, fmt.Errorf("pdn: graph needs at least one rail")
	}
	seen := make(map[string]bool, len(rails))
	floors := make([]float64, len(rails))
	for i, r := range rails {
		if r.Name == "" {
			return nil, fmt.Errorf("pdn: rail %d has no name", i)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("pdn: duplicate rail name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Net == nil {
			return nil, fmt.Errorf("pdn: rail %q has no network", r.Name)
		}
		floors[i] = r.Net.params.IFloor
	}
	g := &Graph{rails: rails, floors: floors}
	if coupling == nil {
		return g, nil
	}
	if len(coupling) != len(rails) {
		return nil, fmt.Errorf("pdn: coupling matrix has %d rows for %d rails", len(coupling), len(rails))
	}
	for i, row := range coupling {
		if len(row) != len(rails) {
			return nil, fmt.Errorf("pdn: coupling row %d has %d columns for %d rails", i, len(row), len(rails))
		}
		for j, k := range row {
			if i == j && k != 0 {
				return nil, fmt.Errorf("pdn: rail %q couples to itself (k=%g)", rails[i].Name, k)
			}
			if k < 0 || k >= 1 {
				return nil, fmt.Errorf("pdn: coupling %q<-%q coefficient %g outside [0,1)", rails[i].Name, rails[j].Name, k)
			}
			if k != 0 {
				g.coupled = true
			}
		}
	}
	if g.coupled {
		g.coupling = coupling
	}
	return g, nil
}

// Size reports the number of rails.
func (g *Graph) Size() int { return len(g.rails) }

// Rail returns rail i.
func (g *Graph) Rail(i int) Rail { return g.rails[i] }

// Coupled reports whether any cross-coupling coefficient is nonzero.
func (g *Graph) Coupled() bool { return g.coupled }

// CouplingInto returns a copy of row i of the coupling matrix (the
// coefficients of what rail i receives), or nil for an uncoupled graph.
func (g *Graph) CouplingInto(i int) []float64 {
	if !g.coupled {
		return nil
	}
	return append([]float64(nil), g.coupling[i]...)
}

// GraphSimulator advances all rails of a Graph in lockstep, one streaming
// Simulator per rail. Not safe for concurrent use; create one per
// goroutine and Release it when done.
type GraphSimulator struct {
	g    *Graph
	sims []*Simulator
	eff  []float64 // effective (coupled) per-rail inputs, reused across steps
}

// NewSimulator creates a quiescent simulator for every rail.
func (g *Graph) NewSimulator() *GraphSimulator {
	sims := make([]*Simulator, len(g.rails))
	for i, r := range g.rails {
		sims[i] = r.Net.NewSimulator()
	}
	return &GraphSimulator{g: g, sims: sims, eff: make([]float64, len(g.rails))}
}

// RailSim exposes rail i's underlying streaming simulator. On an uncoupled
// graph stepping it directly is equivalent to stepping the graph.
func (s *GraphSimulator) RailSim(i int) *Simulator { return s.sims[i] }

// Step advances every rail one CPU cycle: currents[i] is rail i's load
// current and volts[i] receives its supply voltage. Both slices must have
// length >= Size(). Zero allocations; on an uncoupled graph each rail's
// output is bit-identical to stepping its Simulator alone.
//
//didt:hotpath
func (s *GraphSimulator) Step(currents, volts []float64) {
	g := s.g
	if !g.coupled {
		for i, sim := range s.sims {
			volts[i] = sim.Step(currents[i])
		}
		return
	}
	// Coupling inner loop: build each rail's effective input before any
	// rail advances, so injection uses this cycle's raw currents.
	eff := s.eff
	floors := g.floors
	for i := range s.sims {
		c := currents[i]
		row := g.coupling[i]
		for j, k := range row {
			if k != 0 {
				c += k * (currents[j] - floors[j])
			}
		}
		eff[i] = c
	}
	for i, sim := range s.sims {
		volts[i] = sim.Step(eff[i])
	}
}

// Cycles reports how many cycles have been simulated.
func (s *GraphSimulator) Cycles() int { return s.sims[0].Cycles() }

// Reset returns every rail to the quiescent state.
func (s *GraphSimulator) Reset() {
	for _, sim := range s.sims {
		sim.Reset()
	}
}

// Release releases every rail simulator. The graph simulator must not be
// used afterwards.
func (s *GraphSimulator) Release() {
	for _, sim := range s.sims {
		sim.Release()
	}
}

// ConvolveVoltages computes every rail's voltage for entire current traces
// at once: currents[i] and dst[i] are rail i's input and output (dst[i]
// must have length >= len(currents[i])). Uncoupled rails pass their trace
// straight to Network.ConvolveVoltages — byte-identical to the single-rail
// open-loop path — while coupled rails first materialize the effective
// input trace, summed in the order GraphSimulator.Step sums it, so both
// paths agree to the bit. Rails may have different trace lengths only
// when uncoupled; coupling requires equal lengths.
func (g *Graph) ConvolveVoltages(dst, currents [][]float64) {
	if !g.coupled {
		for i, r := range g.rails {
			r.Net.ConvolveVoltages(dst[i], currents[i])
		}
		return
	}
	for i, r := range g.rails {
		eff := make([]float64, len(currents[i]))
		copy(eff, currents[i])
		for j, k := range g.coupling[i] {
			if k == 0 {
				continue
			}
			floor := g.floors[j]
			for n, cj := range currents[j] {
				eff[n] += k * (cj - floor)
			}
		}
		r.Net.ConvolveVoltages(dst[i], eff)
	}
}
