package cpu

import "didt/internal/isa"

// Activity is the per-cycle structural activity report consumed by the
// power model (the Wattch accounting interface): how many times each
// microarchitectural structure was exercised this cycle.
type Activity struct {
	Fetched    int // instructions fetched from the I-cache
	Dispatched int // instructions renamed + inserted into RUU/LSQ
	Issued     int // instructions sent to functional units
	Completed  int // results written back on the result bus
	Committed  int // instructions retired

	IssuedByClass [isa.NumClasses]int

	BpredLookups  int
	ICacheAccess  int // I-cache line accesses
	DCacheAccess  int // D-cache accesses (loads issued + stores committed)
	L2Access      int
	RegReads      int
	RegWrites     int
	WindowWakeups int // tag-match wakeups broadcast in the window
	RUUOccupancy  int // entries resident this cycle
	LSQOccupancy  int

	// Gating status this cycle (for the power model's actuator accounting).
	FUsGated bool
	DL1Gated bool
	IL1Gated bool
}

// Gating is the actuator interface into the core: which structures are
// clock-gated this cycle. Gating never drops architectural work — gated
// structures simply refuse service until re-enabled.
type Gating struct {
	FUs bool // block issue to all execution units (int + fp pipelines)
	DL1 bool // block D-cache access (loads stall, stores cannot commit)
	IL1 bool // block instruction fetch
}

// Stats accumulates whole-run statistics.
type Stats struct {
	Cycles       uint64
	Instructions uint64 // committed
	Fetched      uint64
	Issued       uint64

	BranchLookups uint64
	Mispredicts   uint64

	L1IMissRate float64
	L1DMissRate float64
	L2MissRate  float64

	FetchStallCycles  uint64 // front end had nothing to do (refill, gate)
	IssueStallCycles  uint64 // no instruction issued
	GatedCycles       uint64 // at least one structure gated by the actuator
	CommitStallCycles uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// quiet reports whether no pipeline stage did anything this cycle: every
// count is zero (an issue also counts in Issued, so IssuedByClass needs no
// separate check).
func (a *Activity) quiet() bool {
	return a.Fetched|a.Dispatched|a.Issued|a.Completed|a.Committed|a.BpredLookups|
		a.ICacheAccess|a.DCacheAccess|a.L2Access|a.RegReads|a.RegWrites|a.WindowWakeups == 0
}
