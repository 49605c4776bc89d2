// Package cpu implements the cycle-level out-of-order core of Table 1: an
// 8-wide machine with a 256-entry register update unit (RUU — the merged
// reorder buffer / reservation stations of SimpleScalar's sim-outorder), a
// 128-entry load/store queue, the Table 1 functional-unit mix, a combined
// branch predictor and the Table 1 memory hierarchy.
//
// The timing model uses SimpleScalar's execute-at-dispatch technique:
// instructions are functionally executed (against isa.ArchState) when they
// enter the window, so values, branch outcomes and effective addresses are
// exact, while the pipeline model charges realistic timing. On a branch
// misprediction the front end stops (no wrong-path dispatch) and resumes at
// resolution plus the configured refill penalty; the quiet front end during
// refill is precisely the current dip the paper's controller must manage.
//
// Every cycle Step returns an Activity report for the power model, and the
// Gating hooks let the dI/dt actuator clock-gate the execution units and
// the L1 caches without perturbing architectural state.
package cpu

import (
	"fmt"
	"math/bits"

	"didt/internal/bpred"
	"didt/internal/isa"
	"didt/internal/mem"
	"didt/internal/telemetry"
)

const (
	stWaiting uint8 = iota // in window, operands outstanding
	stReady                // operands available, not yet issued
	stIssued               // executing
	stDone                 // completed, awaiting commit
)

// calBuckets must exceed the longest possible operation latency.
const calBuckets = 1024

type prodRef struct {
	idx int32
	seq uint64
}

type entry struct {
	d     *decoded // the instruction's predecoded static facts
	pc    int
	seq   uint64
	out   isa.Outcome
	pred  bpred.Prediction
	state uint8

	mispred bool

	waitCnt   int
	consumers []prodRef // younger entries waiting on this result

	lsqPos int // memory ops: slot in the LSQ ring
	// orderEpoch is the store-address epoch at which this load last failed
	// the ordering check (0: never); see CPU.storeEpoch.
	orderEpoch uint64

	doneAt uint64
}

// lsqSlot is one in-flight memory op in the load/store queue, with what
// the load-ordering check reads kept inline so its walk stays in the
// queue's own cache lines.
type lsqSlot struct {
	store     bool
	addrReady bool   // stores: address generated
	word      uint64 // effective address >> 3
}

type fetchSlot struct {
	in   isa.Instr
	pc   int
	pred bpred.Prediction // set for branches only
}

// quietCycle is a recorded cycle in which no pipeline stage did anything:
// every Activity count was zero. Until the first cycle at which a timed
// event can change that (a completion, the front end's ready time, a unit
// freeing up), and while the gating it saw holds, the stages would repeat
// it exactly, so StepInto replays it instead of re-running them.
type quietCycle struct {
	until    uint64 // replay cycles strictly before this one; 0 disarms
	act      Activity
	gating   Gating
	dl1, il1 bool   // Mem's gating flags when recorded
	stalls   uint64 // the cycle's CommitStallCycles increment (0 or 1)
}

// CPU is one core instance. It is not safe for concurrent use.
type CPU struct {
	cfg  Config
	prog isa.Program
	dec  []decoded // predecoded program, one entry per PC
	arch *isa.ArchState

	Pred *bpred.Predictor
	Mem  *mem.Hierarchy

	gating Gating

	// Window state. ruu is a ring: head is the oldest entry, count entries.
	ruu   []entry
	head  int
	count int
	seq   uint64

	lsq      []lsqSlot // in-flight memory ops, oldest first
	lsqHead  int
	lsqCount int
	// storeEpoch counts stores whose address became ready. A load that
	// failed the ordering check cannot pass it before this changes: the
	// store that blocked it stays in the LSQ until it retires, which is
	// after its address is ready.
	storeEpoch uint64

	intProd [isa.NumRegs]prodRef
	fpProd  [isa.NumRegs]prodRef

	// ready has bit p set when RUU position p holds an entry whose
	// operands are all available and that has not issued. Walking it from
	// head, wrapping, visits those entries oldest first.
	ready []uint64

	calendar [calBuckets][]int32

	fuBusy [numFUGroups][]uint64 // per-unit busy-until cycle

	// Front end. fetchQ is a fixed ring of FetchQLen slots (fqHead is the
	// oldest entry, fqLen the occupancy) so steady-state fetch/dispatch
	// traffic never reallocates or re-slices the queue.
	fetchPC      int
	fetchQ       []fetchSlot
	fqHead       int
	fqLen        int
	fetchBlocked bool // mispredicted branch in flight; no wrong-path fetch
	fetchHalted  bool // HALT fetched or PC ran off the program
	fetchReadyAt uint64
	curFetchLine uint64
	lineMask     uint64 // I-cache line address mask

	haltSeen   bool // HALT dispatched
	done       bool
	cycle      uint64
	idleStreak uint64 // consecutive no-progress cycles (deadlock guard)
	wedgeAfter uint64 // idleStreak beyond which the core is declared wedged

	quiet quietCycle

	stats Stats
	err   error
}

// New builds a core for the given program. Zero Config fields take the
// Table 1 defaults.
func New(cfg Config, prog isa.Program) (*CPU, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if len(prog) == 0 {
		return nil, fmt.Errorf("cpu: empty program")
	}
	pred, err := bpred.New(cfg.Bpred)
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	// Like the class latencies (Config.Validate), every cache access
	// latency must fit the completion calendar.
	m := hier.Config()
	for _, lat := range [...]int{m.L1HitLat, m.L1HitLat + m.L2HitLat, m.L1HitLat + m.L2HitLat + m.MemLat} {
		if lat >= calBuckets {
			return nil, fmt.Errorf("cpu: memory latency %d exceeds calendar capacity %d", lat, calBuckets)
		}
	}
	c := &CPU{
		cfg:          cfg,
		prog:         prog,
		dec:          make([]decoded, len(prog)),
		arch:         isa.NewArchState(),
		Pred:         pred,
		Mem:          hier,
		ruu:          make([]entry, cfg.RUUSize),
		lsq:          make([]lsqSlot, cfg.LSQSize),
		ready:        make([]uint64, (cfg.RUUSize+63)/64),
		storeEpoch:   1,
		fetchQ:       make([]fetchSlot, cfg.FetchQLen),
		seq:          1,
		curFetchLine: ^uint64(0),
		lineMask:     ^uint64(int64(m.LineBytes - 1)),
		// The longest legitimate quiet period is a memory-latency stall
		// (or an actuator gate); anything much longer is a wedge.
		wedgeAfter: uint64(4 * (m.MemLat + calBuckets)),
	}
	for pc, in := range prog {
		c.dec[pc] = cfg.decode(in)
	}
	for g := fuGroup(0); g < numFUGroups; g++ {
		c.fuBusy[g] = make([]uint64, cfg.groupSize(g))
	}
	telemetry.Default().Counter("cpu.machines_built_total").Inc()
	return c, nil
}

// Arch exposes the architectural state (for workload setup and result
// inspection).
func (c *CPU) Arch() *isa.ArchState { return c.arch }

// Config returns the resolved configuration.
func (c *CPU) Config() Config { return c.cfg }

// SetGating installs the actuator's gating decision for subsequent cycles.
func (c *CPU) SetGating(g Gating) {
	c.gating = g
	c.Mem.DL1Gated = g.DL1
	c.Mem.IL1Gated = g.IL1
}

// Flush models the pipeline-flush recovery alternative of the paper's
// Section 6 ("flushing the pipeline if execution cannot resume
// mid-stream"): the fetch queue is discarded and the front end restarts at
// the oldest discarded instruction after the given refill penalty. In-
// window instructions are unaffected (they hold architectural results).
// If a misprediction recovery is already pending, the flush is a no-op —
// that recovery will redirect fetch anyway. Discarded instructions are
// re-looked-up on re-fetch, so the branch predictor sees their history
// twice; this small inaccuracy is inherent to flush-style recovery.
func (c *CPU) Flush(penalty int) {
	c.quiet.until = 0
	if c.fetchBlocked || c.fetchHalted {
		return
	}
	if c.fqLen > 0 {
		c.fetchPC = c.fetchQ[c.fqHead].pc
		c.fqHead, c.fqLen = 0, 0
		c.curFetchLine = ^uint64(0)
	}
	if penalty < 0 {
		penalty = 0
	}
	if at := c.cycle + uint64(penalty); at > c.fetchReadyAt {
		c.fetchReadyAt = at
	}
}

// Gating returns the current gating state.
func (c *CPU) Gating() Gating { return c.gating }

// Done reports whether the program has fully retired (or the core wedged;
// see Err).
func (c *CPU) Done() bool { return c.done }

// Err reports an internal model error (deadlock); nil in normal operation.
func (c *CPU) Err() error { return c.err }

// Stats returns a snapshot of run statistics.
func (c *CPU) Stats() Stats {
	s := c.stats
	s.L1IMissRate = c.Mem.L1I.MissRate()
	s.L1DMissRate = c.Mem.L1D.MissRate()
	s.L2MissRate = c.Mem.L2.MissRate()
	s.BranchLookups = c.Pred.Lookups
	s.Mispredicts = c.Pred.DirMispred + c.Pred.TargMispred
	return s
}

// Cycle returns the current cycle number.
func (c *CPU) Cycle() uint64 { return c.cycle }

// Step advances the core one clock cycle and returns the structural
// activity of that cycle. done becomes true when the program has retired.
func (c *CPU) Step() (Activity, bool) {
	var act Activity
	done := c.StepInto(&act)
	return act, done
}

// StepInto is Step without the ~200-byte Activity return copy: it resets
// *act and fills it in place. The simulation loops call it once per
// machine cycle, where the value-return copies (Step's return, the power
// model's argument) were a measurable slice of a cold sweep.
//
// A cycle in which no stage does anything is recorded, and the cycles
// after it replay the record instead of running the stages, until a
// completion falls due, the front end's ready time or a busy unit's
// release arrives, the gating changes or Flush is called (see
// recordQuiet). Nothing else can change what the stages do, so the replay
// yields the same Activity and statistics bit for bit.
//
//didt:hotpath
func (c *CPU) StepInto(act *Activity) bool {
	if c.done {
		*act = Activity{}
		return true
	}
	if c.gating.FUs || c.gating.DL1 || c.gating.IL1 {
		c.stats.GatedCycles++
	}
	replay := c.cycle < c.quiet.until && c.gating == c.quiet.gating &&
		c.Mem.DL1Gated == c.quiet.dl1 && c.Mem.IL1Gated == c.quiet.il1
	var stalls uint64
	if replay {
		*act = c.quiet.act
		c.stats.CommitStallCycles += c.quiet.stalls
	} else {
		*act = Activity{}
		act.FUsGated, act.DL1Gated, act.IL1Gated = c.gating.FUs, c.gating.DL1, c.gating.IL1
		stalls = c.stats.CommitStallCycles

		c.writeback(act)
		c.commit(act)
		c.issue(act)
		c.dispatch(act)
		c.fetch(act)

		act.RUUOccupancy = c.count
		act.LSQOccupancy = c.lsqCount
		stalls = c.stats.CommitStallCycles - stalls
	}

	c.stats.Cycles++
	if act.Issued == 0 {
		c.stats.IssueStallCycles++
	}
	if act.Fetched == 0 {
		c.stats.FetchStallCycles++
	}
	c.cycle++

	// Deadlock guard: the machine must eventually make progress somewhere
	// (fetch counts — an empty window waiting out a cold I-cache miss is
	// legitimate, but thousands of cycles with no events of any kind means
	// a model bug or a permanently-gated machine).
	if !c.done && act.Completed == 0 && act.Committed == 0 && act.Issued == 0 &&
		act.Dispatched == 0 && act.Fetched == 0 {
		c.idleStreak++
		if c.idleStreak > c.wedgeAfter {
			c.err = fmt.Errorf("cpu: pipeline wedged at cycle %d (pc=%d, ruu=%d)", c.cycle, c.fetchPC, c.count) //didt:allow hotpath -- terminal wedge diagnostic, reached at most once per run
			c.done = true
		}
	} else {
		c.idleStreak = 0
	}

	if c.count == 0 && (c.fetchHalted || c.fetchBlocked) && c.fqLen == 0 && c.haltSeen {
		c.done = true
	}
	// A program that runs off the end without HALT also terminates once
	// drained.
	if c.count == 0 && c.fetchHalted && c.fqLen == 0 {
		c.done = true
	}
	if !replay {
		if !c.done && act.quiet() {
			c.recordQuiet(act, stalls)
		} else {
			c.quiet.until = 0
		}
	}
	return c.done
}

// recordQuiet arms replay of the cycle just run, in which no stage did
// anything. In such a cycle the calendar bucket was empty, nothing
// committed (the head was not done, or was a store facing a gated
// D-cache), every ready instruction was refused by gating, load ordering
// or a busy unit before touching the cache (memory ports are only ever
// busy in the cycle they issue), dispatch was blocked and fetch was
// stalled. None of those stages changed any state except the one-time
// fetchHalted latch and the idempotent load-ordering epoch, so the next
// cycles behave the same until a timed event arrives: the first non-empty
// calendar bucket, fetchReadyAt, or the earliest busy-until of a unit (a
// non-pipelined unit frees in the cycle its operation completes, so this
// repeats a calendar event today, but the bound does not rest on that).
// An event at time t changes cycle t itself, so replay stops at the first
// event at or after the next cycle, never one cycle later.
//
//didt:hotpath
func (c *CPU) recordQuiet(act *Activity, stalls uint64) {
	next := c.cycle
	until := next + calBuckets // every pending completion falls before this
	if c.fetchReadyAt >= next && c.fetchReadyAt < until {
		until = c.fetchReadyAt
	}
	for g := range c.fuBusy {
		for _, b := range c.fuBusy[g] {
			if b >= next && b < until {
				until = b
			}
		}
	}
	for t := next; t < until; t++ {
		if len(c.calendar[t%calBuckets]) > 0 {
			until = t
			break
		}
	}
	if until == next {
		c.quiet.until = 0
		return
	}
	c.quiet = quietCycle{until: until, act: *act, gating: c.gating,
		dl1: c.Mem.DL1Gated, il1: c.Mem.IL1Gated, stalls: stalls}
}

func (c *CPU) writeback(act *Activity) {
	bucket := &c.calendar[c.cycle%calBuckets]
	if len(*bucket) == 0 {
		return
	}
	for _, idx := range *bucket {
		e := &c.ruu[idx]
		if e.state != stIssued || e.doneAt != c.cycle {
			continue // stale (squashed and slot reused)
		}
		d := e.d
		e.state = stDone
		act.Completed++
		if d.writesInt || d.writesFP {
			act.RegWrites++
		}
		if d.isStore {
			c.lsq[e.lsqPos].addrReady = true
			c.storeEpoch++
		}
		// Wake consumers.
		for _, cr := range e.consumers {
			t := &c.ruu[cr.idx]
			if t.seq != cr.seq || t.state != stWaiting {
				continue
			}
			act.WindowWakeups++
			t.waitCnt--
			if t.waitCnt == 0 {
				t.state = stReady
				c.setReady(cr.idx)
			}
		}
		e.consumers = e.consumers[:0]
		if d.isBranch {
			c.resolveBranch(e)
		}
	}
	*bucket = (*bucket)[:0]
}

func (c *CPU) resolveBranch(e *entry) {
	taken := e.out.Taken
	c.Pred.Resolve(e.pc, c.prog[e.pc], e.pred, taken, e.out.NextPC)
	if e.mispred {
		// Recovery: drop the wrong-path fetch queue and restart the front
		// end at the correct target after the refill penalty.
		c.fqHead, c.fqLen = 0, 0
		c.fetchBlocked = false
		c.fetchPC = e.out.NextPC
		c.fetchReadyAt = c.cycle + 1 + uint64(c.cfg.BranchPenalty)
		c.curFetchLine = ^uint64(0)
		if c.fetchPC < 0 || c.fetchPC >= len(c.prog) {
			c.fetchHalted = true
			c.haltSeen = true
		} else {
			c.fetchHalted = false
		}
	}
}

func (c *CPU) commit(act *Activity) {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		idx := int32(c.head)
		e := &c.ruu[idx]
		if e.state != stDone {
			c.stats.CommitStallCycles++
			return
		}
		d := e.d
		if d.isStore {
			// Stores update the D-cache at retirement; a gated cache
			// stalls commit (the clock is off).
			res, ok := c.Mem.AccessData(e.out.EA, true)
			if !ok {
				c.stats.CommitStallCycles++
				return
			}
			act.DCacheAccess++
			if res.L2Used {
				act.L2Access++
			}
		}
		// Free the register-status entry if it still points here.
		if d.writesInt {
			if p := &c.intProd[d.dst]; p.idx == idx && p.seq == e.seq {
				p.seq = 0
			}
		} else if d.writesFP {
			if p := &c.fpProd[d.dst]; p.idx == idx && p.seq == e.seq {
				p.seq = 0
			}
		}
		if d.isMem {
			if c.lsqHead++; c.lsqHead == c.cfg.LSQSize {
				c.lsqHead = 0
			}
			c.lsqCount--
		}
		e.seq = 0
		if c.head++; c.head == c.cfg.RUUSize {
			c.head = 0
		}
		c.count--
		act.Committed++
		c.stats.Instructions++
		if d.isHalt {
			c.done = true
			return
		}
	}
}

func (c *CPU) setReady(pos int32) { c.ready[pos>>6] |= 1 << (pos & 63) }

// issue starts up to IssueWidth ready instructions, oldest first so older
// instructions get FU priority: the RUU ring from head to its end, then
// from its start up to head.
func (c *CPU) issue(act *Activity) {
	budget := c.cfg.IssueWidth
	if c.issueRange(c.head, c.cfg.RUUSize, &budget, act) {
		c.issueRange(0, c.head, &budget, act)
	}
}

// issueRange tries the ready entries at RUU positions [lo, hi) in order.
// It reports whether issue bandwidth remains.
//
//didt:hotpath
func (c *CPU) issueRange(lo, hi int, budget *int, act *Activity) bool {
	if lo >= hi {
		return true
	}
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		set := c.ready[w]
		if w == lo>>6 {
			set &= ^uint64(0) << (lo & 63)
		}
		if w == (hi-1)>>6 && hi&63 != 0 {
			set &= 1<<(hi&63) - 1
		}
		for set != 0 {
			b := bits.TrailingZeros64(set)
			set &= set - 1
			idx := int32(w<<6 + b)
			e := &c.ruu[idx]
			// Execution-unit gating from the dI/dt actuator: the int and
			// fp pipelines are clock-gated, so nothing can start on them.
			if c.gating.FUs && e.d.fuGated {
				continue
			}
			if !c.tryIssue(idx, e, act) {
				continue
			}
			c.ready[w] &^= 1 << b
			act.Issued++
			c.stats.Issued++
			act.IssuedByClass[e.d.class]++
			if *budget--; *budget == 0 {
				return false
			}
		}
	}
	return true
}

func (c *CPU) tryIssue(idx int32, e *entry, act *Activity) bool {
	d := e.d
	var lat int
	var dcache, l2 bool
	switch {
	case d.isLoad:
		if c.gating.DL1 {
			return false
		}
		if e.orderEpoch == c.storeEpoch {
			return false // the store that blocked it is still unready
		}
		fwd, ok := c.loadOrderingOK(e)
		if !ok {
			e.orderEpoch = c.storeEpoch
			return false
		}
		if fwd {
			lat = 1 // store-to-load forward inside the LSQ
		} else {
			res, ok := c.Mem.AccessData(e.out.EA, false)
			if !ok {
				return false
			}
			lat = res.Latency
			dcache = true
			l2 = res.L2Used
		}
	case d.isStore:
		lat = 1 // address generation only; data written at commit
	default:
		lat = d.lat
	}
	// Allocate a functional unit.
	busy := c.fuBusy[d.group]
	unit := -1
	for u, b := range busy {
		if b <= c.cycle {
			unit = u
			break
		}
	}
	if unit < 0 {
		return false
	}
	if d.pipelined {
		busy[unit] = c.cycle + 1
	} else {
		busy[unit] = c.cycle + uint64(lat)
	}
	e.state = stIssued
	if lat < 1 {
		lat = 1
	}
	e.doneAt = c.cycle + uint64(lat)
	slot := &c.calendar[e.doneAt%calBuckets]
	*slot = append(*slot, idx)
	if dcache {
		act.DCacheAccess++
	}
	if l2 {
		act.L2Access++
	}
	// Register-file read traffic.
	act.RegReads += d.nsrc
	return true
}

// loadOrderingOK enforces conservative load/store ordering: a load may
// issue only after every older store in the LSQ has generated its address.
// It reports (forwarded, ok): forwarded means an older store to the same
// word supplies the data directly.
func (c *CPU) loadOrderingOK(e *entry) (bool, bool) {
	fwd := false
	word := e.out.EA >> 3
	for j := c.lsqHead; j != e.lsqPos; {
		s := &c.lsq[j]
		if s.store {
			if !s.addrReady {
				return false, false
			}
			if s.word == word {
				fwd = true // youngest matching older store wins
			}
		}
		if j++; j == c.cfg.LSQSize {
			j = 0
		}
	}
	return fwd, true
}

func (c *CPU) dispatch(act *Activity) {
	if c.fetchBlocked {
		return
	}
	for n := 0; n < c.cfg.DecodeWidth && c.fqLen > 0; n++ {
		if c.count == c.cfg.RUUSize {
			return
		}
		slot := &c.fetchQ[c.fqHead]
		d := &c.dec[slot.pc]
		if d.isMem && c.lsqCount == c.cfg.LSQSize {
			return
		}
		c.fqHead++
		if c.fqHead == len(c.fetchQ) {
			c.fqHead = 0
		}
		c.fqLen--

		tail := c.head + c.count
		if tail >= c.cfg.RUUSize {
			tail -= c.cfg.RUUSize
		}
		pos := int32(tail)
		c.count++
		e := &c.ruu[pos]
		// Reset the slot field-by-field rather than with a struct-literal
		// overwrite: that keeps the consumer list's capacity (writeback's
		// appends would otherwise reallocate per dispatched entry) and skips
		// re-zeroing the large out/pred fields: out is overwritten below,
		// and pred is only ever read for branches, which set it.
		e.d = d
		e.pc = slot.pc
		e.seq = c.seq
		if d.isBranch {
			e.pred = slot.pred
		}
		e.state = stWaiting
		e.mispred = false
		e.waitCnt = 0
		e.orderEpoch = 0
		e.doneAt = 0
		e.consumers = e.consumers[:0]
		c.seq++
		// Functional execution: exact values, outcome and address.
		e.out = c.arch.Exec(slot.in)
		if d.isMem {
			t := c.lsqHead + c.lsqCount
			if t >= c.cfg.LSQSize {
				t -= c.cfg.LSQSize
			}
			c.lsq[t] = lsqSlot{store: d.isStore, word: e.out.EA >> 3}
			e.lsqPos = t
			c.lsqCount++
		}

		// Collect operand dependencies against in-flight producers.
		for _, src := range d.srcs[:d.nsrc] {
			var p *prodRef
			if src.fp {
				p = &c.fpProd[src.reg]
			} else {
				p = &c.intProd[src.reg]
			}
			if p.seq == 0 {
				continue
			}
			pe := &c.ruu[p.idx]
			if pe.seq != p.seq || pe.state == stDone {
				continue
			}
			e.waitCnt++
			pe.consumers = append(pe.consumers, prodRef{pos, e.seq})
		}
		// Publish this entry as the new producer of its destination.
		if d.writesInt {
			c.intProd[d.dst] = prodRef{pos, e.seq}
		} else if d.writesFP {
			c.fpProd[d.dst] = prodRef{pos, e.seq}
		}

		if e.waitCnt == 0 {
			e.state = stReady
			c.setReady(pos)
		}
		act.Dispatched++

		if d.isBranch {
			correct := e.pred.Taken == e.out.Taken && (!e.out.Taken || e.pred.Target == e.out.NextPC)
			if !correct {
				e.mispred = true
				c.fetchBlocked = true
				return
			}
		}
		if d.isHalt {
			c.haltSeen = true
			return
		}
	}
}

func (c *CPU) fetch(act *Activity) {
	if c.fetchBlocked || c.fetchHalted || c.gating.IL1 {
		return
	}
	if c.cycle < c.fetchReadyAt {
		return
	}
	for n := 0; n < c.cfg.FetchWidth && c.fqLen < len(c.fetchQ); n++ {
		if c.fetchPC < 0 || c.fetchPC >= len(c.prog) {
			c.fetchHalted = true
			c.haltSeen = true
			return
		}
		addr := isa.PCByteAddr(c.fetchPC)
		if addr&c.lineMask != c.curFetchLine {
			res, ok := c.Mem.FetchInstr(addr)
			if !ok {
				return // I-cache gated
			}
			act.ICacheAccess++
			if res.L2Used {
				act.L2Access++
			}
			c.curFetchLine = addr & c.lineMask
			if !res.L1Hit {
				c.fetchReadyAt = c.cycle + uint64(res.Latency)
				return
			}
		}
		d := &c.dec[c.fetchPC]
		tail := c.fqHead + c.fqLen
		if tail >= len(c.fetchQ) {
			tail -= len(c.fetchQ)
		}
		slot := &c.fetchQ[tail]
		slot.in, slot.pc = c.prog[c.fetchPC], c.fetchPC
		if d.isBranch {
			slot.pred = c.Pred.Lookup(c.fetchPC, slot.in)
			act.BpredLookups++
		}
		c.fqLen++
		act.Fetched++
		c.stats.Fetched++
		if d.isHalt {
			c.fetchHalted = true
			return
		}
		if d.isBranch && slot.pred.Taken {
			c.fetchPC = slot.pred.Target
			return // taken branch ends the fetch group
		}
		c.fetchPC++
	}
}
