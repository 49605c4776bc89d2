package cpu

import (
	"strings"
	"testing"

	"didt/internal/isa"
)

// TestRUUFillStallsDispatch verifies back-pressure: a long-latency head
// instruction blocks commit, the window fills, and dispatch halts rather
// than overflowing.
func TestRUUFillStallsDispatch(t *testing.T) {
	// A loop so the second iteration runs with a warm I-cache: its head
	// load misses to memory while fetch streams filler behind it.
	b := isa.NewBuilder()
	b.LdI(1, 0x400000)
	b.LdI(9, 3)
	b.Label("loop")
	b.Ld(2, 1, 0) // cold miss: ~318 cycles at the head
	for i := 0; i < 400; i++ {
		b.AddI(uint8(3+i%8), isa.ZeroReg, int64(i)) // independent filler
	}
	b.AddI(1, 1, 1<<20) // next iteration misses again
	b.AddI(9, 9, -1)
	b.BneZ(9, "loop")
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	sawFull := false
	for i := 0; i < 60000 && !c.Done(); i++ {
		act, _ := c.Step()
		if act.RUUOccupancy > c.Config().RUUSize {
			t.Fatalf("RUU overflow: %d", act.RUUOccupancy)
		}
		if act.RUUOccupancy == c.Config().RUUSize {
			sawFull = true
		}
	}
	if !sawFull {
		t.Error("window never filled behind a memory-latency stall")
	}
}

// TestLSQFillStallsDispatch does the same for the load/store queue.
func TestLSQFillStallsDispatch(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 0x400000)
	b.LdI(9, 3)
	b.Label("loop")
	b.Ld(2, 1, 0) // cold miss at the head blocks commit
	for i := 0; i < 180; i++ {
		b.St(1, 1, int64(8*i)) // stores pile into the LSQ
	}
	b.AddI(1, 1, 1<<20)
	b.AddI(9, 9, -1)
	b.BneZ(9, "loop")
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i := 0; i < 60000 && !c.Done(); i++ {
		act, _ := c.Step()
		if act.LSQOccupancy > c.Config().LSQSize {
			t.Fatalf("LSQ overflow: %d", act.LSQOccupancy)
		}
		if act.LSQOccupancy > peak {
			peak = act.LSQOccupancy
		}
	}
	if peak < c.Config().LSQSize {
		t.Errorf("LSQ peaked at %d, expected to fill (%d)", peak, c.Config().LSQSize)
	}
}

// TestRETMispredictionRecovers drives returns through two different call
// sites so the RAS must supply differing targets, and validates the
// architectural result.
func TestRETMispredictionRecovers(t *testing.T) {
	src := `
	  ldi r1, 0
	  ldi r2, 200
	loop:
	  call fa
	  call fb
	  addi r2, r2, -1
	  bnez r2, loop
	  halt
	fa:
	  addi r1, r1, 1
	  ret
	fb:
	  addi r1, r1, 3
	  ret
	`
	p, err := isa.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500000 && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() || c.Err() != nil {
		t.Fatalf("did not finish: %v", c.Err())
	}
	if c.Arch().R[1] != 200*4 {
		t.Errorf("r1 = %d, want 800", c.Arch().R[1])
	}
}

// TestStoreToLoadForwardingLatency checks that a forwarded load is much
// faster than a cache miss would be.
func TestStoreToLoadForwardingLatency(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 0x500000) // cold region
	b.LdI(2, 99)
	b.St(2, 1, 0)
	b.Ld(3, 1, 0)  // same word: must forward, not wait on the cold miss
	b.Add(4, 3, 3) // dependent
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && !c.Done(); i++ {
		c.Step()
	}
	// The I-cache cold misses dominate; the run must NOT also pay a data
	// miss (store commits to cache at retirement, load forwarded earlier).
	memLat := c.Mem.Config().MemLat
	if got := int(c.Stats().Cycles); got > 3*memLat {
		t.Errorf("run took %d cycles; forwarding should avoid a serialized data miss", got)
	}
	if c.Arch().R[4] != 198 {
		t.Errorf("r4 = %d", c.Arch().R[4])
	}
}

// TestZeroRegisterInPipeline verifies r31 discards results through the
// renamed dataflow, not just in the functional model.
func TestZeroRegisterInPipeline(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(isa.ZeroReg, 42)
	b.Add(1, isa.ZeroReg, isa.ZeroReg)
	b.AddI(2, 1, 7)
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000 && !c.Done(); i++ {
		c.Step()
	}
	if c.Arch().R[1] != 0 || c.Arch().R[2] != 7 {
		t.Errorf("r1=%d r2=%d", c.Arch().R[1], c.Arch().R[2])
	}
}

// TestFetchStopsAtProgramEnd: a program whose last instruction is not HALT
// must still terminate once it runs off the end.
func TestFetchStopsAtProgramEnd(t *testing.T) {
	p := isa.Program{
		{Op: isa.ADDI, Dst: 1, Src1: isa.ZeroReg, Imm: 5},
		{Op: isa.ADDI, Dst: 2, Src1: 1, Imm: 5},
	}
	c, err := New(Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000 && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() {
		t.Fatal("run-off-the-end program did not terminate")
	}
	if c.Arch().R[2] != 10 {
		t.Errorf("r2 = %d", c.Arch().R[2])
	}
}

// TestBranchToSelfLoopWithCounter exercises a tight 2-instruction loop
// (maximum branch pressure).
func TestBranchToSelfLoopWithCounter(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 3000)
	b.Label("l")
	b.AddI(1, 1, -1)
	b.BneZ(1, "l")
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000 && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() || c.Arch().R[1] != 0 {
		t.Fatalf("tight loop failed: done=%v r1=%d", c.Done(), c.Arch().R[1])
	}
}

// TestGatingAllThreeSimultaneously: the widest actuation must stall the
// whole machine and release cleanly.
func TestGatingAllThreeSimultaneously(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 50000)
	b.Label("l")
	b.Ld(2, 1, 0)
	b.AddI(1, 1, -1)
	b.BneZ(1, "l")
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	// Warm up.
	for i := 0; i < 2000; i++ {
		c.Step()
	}
	c.SetGating(Gating{FUs: true, DL1: true, IL1: true})
	for i := 0; i < 200; i++ {
		act, done := c.Step()
		if done {
			t.Fatal("finished while fully gated")
		}
		if act.Fetched > 0 || act.DCacheAccess > 0 {
			t.Fatal("activity while fully gated")
		}
	}
	c.SetGating(Gating{})
	for i := 0; i < 500000 && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() || c.Err() != nil {
		t.Fatalf("did not recover from full gating: %v", c.Err())
	}
}

// TestDeadlockGuardFires: an artificial wedge (permanent full gating) must
// trip the guard rather than spin forever.
func TestDeadlockGuardFires(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 10)
	b.Ld(2, 1, 0)
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	// Let it dispatch something first, then gate forever.
	for i := 0; i < 30; i++ {
		c.Step()
	}
	c.SetGating(Gating{FUs: true, DL1: true, IL1: true})
	for i := 0; i < 20_000_000 && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() {
		t.Fatal("guard never fired")
	}
	if c.Err() == nil {
		t.Fatal("expected a wedge error")
	}
}

// TestMispredictRefillQuietsFrontEnd: during the refill window after a
// mispredict, fetch activity must be zero (the current dip the controller
// has to manage).
func TestMispredictRefillQuietsFrontEnd(t *testing.T) {
	// An unpredictable branch via LCG bits.
	b := isa.NewBuilder()
	b.LdI(5, 6364136223846793005)
	b.LdI(6, 12345)
	b.LdI(7, 1)
	b.LdI(1, 2000)
	b.LdI(8, 61)
	b.Label("loop")
	b.Mul(6, 6, 5)
	b.AddI(6, 6, 1442695040888963407)
	b.Emit(isa.Instr{Op: isa.SHR, Dst: 9, Src1: 6, Src2: 8})
	b.And(9, 9, 7)
	b.BeqZ(9, "skip")
	b.AddI(2, 2, 1)
	b.Label("skip")
	b.AddI(1, 1, -1)
	b.BneZ(1, "loop")
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	quietRuns := 0
	quiet := 0
	for i := 0; i < 400000 && !c.Done(); i++ {
		act, _ := c.Step()
		if act.Fetched == 0 {
			quiet++
		} else {
			if quiet >= c.Config().BranchPenalty {
				quietRuns++
			}
			quiet = 0
		}
	}
	if !c.Done() {
		t.Fatal("did not finish")
	}
	if c.Stats().Mispredicts < 100 {
		t.Fatalf("only %d mispredicts; the pattern should be unpredictable", c.Stats().Mispredicts)
	}
	if quietRuns < 50 {
		t.Errorf("only %d refill-length quiet runs for %d mispredicts",
			quietRuns, c.Stats().Mispredicts)
	}
}

// TestActivityConservation: per-cycle activity reports must sum to the
// run-level statistics, and the pipeline funnel can only narrow
// (fetched >= dispatched >= committed).
func TestActivityConservation(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 400)
	b.Label("l")
	b.Ld(2, 1, 0)
	b.Mul(3, 2, 1)
	b.St(3, 1, 8)
	b.AddI(1, 1, -1)
	b.BneZ(1, "l")
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	var fetched, dispatched, issued, committed uint64
	for i := 0; i < 500000 && !c.Done(); i++ {
		act, _ := c.Step()
		fetched += uint64(act.Fetched)
		dispatched += uint64(act.Dispatched)
		issued += uint64(act.Issued)
		committed += uint64(act.Committed)
	}
	if !c.Done() {
		t.Fatal("did not finish")
	}
	s := c.Stats()
	if fetched != s.Fetched {
		t.Errorf("fetched: activity %d vs stats %d", fetched, s.Fetched)
	}
	if committed != s.Instructions {
		t.Errorf("committed: activity %d vs stats %d", committed, s.Instructions)
	}
	if issued != s.Issued {
		t.Errorf("issued: activity %d vs stats %d", issued, s.Issued)
	}
	if fetched < dispatched || dispatched < committed {
		t.Errorf("pipeline funnel violated: fetched %d dispatched %d committed %d",
			fetched, dispatched, committed)
	}
	// No wrong-path dispatch in this model: everything dispatched commits.
	if dispatched != committed {
		t.Errorf("dispatched %d != committed %d (no-wrong-path invariant)", dispatched, committed)
	}
}

// TestFlushRestartsFetchQueue: Flush discards fetched-but-undispatched
// work and refetches it after the penalty, preserving results.
func TestFlushRestartsFetchQueue(t *testing.T) {
	b := isa.NewBuilder()
	b.LdI(1, 100)
	b.Label("l")
	b.AddI(2, 2, 3)
	b.AddI(1, 1, -1)
	b.BneZ(1, "l")
	b.Halt()
	c, err := New(Config{}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	flushes := 0
	for i := 0; i < 200000 && !c.Done(); i++ {
		if i%50 == 10 {
			c.Flush(c.Config().BranchPenalty)
			flushes++
		}
		c.Step()
	}
	if !c.Done() || c.Err() != nil {
		t.Fatalf("did not finish under periodic flushing: %v", c.Err())
	}
	if c.Arch().R[2] != 300 {
		t.Errorf("r2 = %d, want 300 (flush must not lose instructions)", c.Arch().R[2])
	}
	if flushes == 0 {
		t.Fatal("no flushes exercised")
	}
}

// TestLatencyMustFitCalendar: a completion is filed calBuckets-modulo, so
// a latency of calBuckets or more would wrap onto a bucket drained before
// it is due and never complete — the pipeline wedged thousands of cycles
// later instead of the configuration being refused. Negative latencies
// are refused too (they acted as 1 under a different spec key).
func TestLatencyMustFitCalendar(t *testing.T) {
	prog := isa.Program{{Op: isa.HALT}}
	for _, tc := range []struct {
		name string
		set  func(*Config, int)
	}{
		{"LatIntALU", func(c *Config, v int) { c.LatIntALU = v }},
		{"LatIntMult", func(c *Config, v int) { c.LatIntMult = v }},
		{"LatIntDiv", func(c *Config, v int) { c.LatIntDiv = v }},
		{"LatFPAdd", func(c *Config, v int) { c.LatFPAdd = v }},
		{"LatFPMult", func(c *Config, v int) { c.LatFPMult = v }},
		{"LatFPDiv", func(c *Config, v int) { c.LatFPDiv = v }},
	} {
		for _, bad := range []int{-1, calBuckets, 2000} {
			cfg := DefaultConfig()
			tc.set(&cfg, bad)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Errorf("%s=%d: Validate error %v, want one naming %s", tc.name, bad, err, tc.name)
			}
			if _, err := New(cfg, prog); err == nil {
				t.Errorf("%s=%d: New accepted it", tc.name, bad)
			}
		}
	}

	// The longest latency that fits still completes, on the divider the
	// parent's repro wedged.
	b := isa.NewBuilder()
	b.FLdI(1, 1e30).FLdI(2, 1.5).FDiv(1, 1, 2).FDiv(1, 1, 2).Halt()
	c, err := New(Config{LatFPDiv: calBuckets - 1}, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*calBuckets && !c.Done(); i++ {
		c.Step()
	}
	if !c.Done() || c.Err() != nil {
		t.Fatalf("two fdivs of latency %d: done=%v err=%v", calBuckets-1, c.Done(), c.Err())
	}
	if got := c.Stats().Cycles; got < 2*(calBuckets-1) {
		t.Errorf("two chained fdivs took %d cycles, want >= %d", got, 2*(calBuckets-1))
	}

	// The memory hierarchy's resolved latencies are checked as well.
	var cfg Config
	cfg.Mem.MemLat = calBuckets
	if _, err := New(cfg, prog); err == nil {
		t.Error("New accepted a memory latency beyond the calendar")
	}
}
