package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"didt/internal/server"
	"didt/internal/sim"
	"didt/internal/spec"
	"didt/internal/store"
	"didt/internal/telemetry"
)

// The serve workload's traffic: open loop, seeded Poisson arrivals at one
// fixed rate over at most two client connections.
const (
	serveRate    = 10.0 // arrivals per second
	serveConns   = 2
	serveCycles  = 100_000 // per-spec cycle budget
	serveWarmup  = 10_000
	serveRounds  = 3  // cold set-up rounds for the setup_s median
	serveTail    = 95 // tail percentile over all requests of a 30 s window
	staleETagNth = 8  // every 8th not_modified request sends a stale ETag
	engineGap    = 450 * time.Millisecond
)

// Request classes.
const (
	classCold        = "cold"
	classCoalesced   = "coalesced"
	classHit         = "hit"
	classNotModified = "not_modified"
	classBatch       = "batch"
)

// serveMix is the share of arrivals in each class. A coalesced arrival is
// two simultaneous requests.
var serveMix = []struct {
	class string
	share float64
}{
	{classCold, 0.10},
	{classCoalesced, 0.02},
	{classHit, 0.50},
	{classNotModified, 0.35},
	{classBatch, 0.03},
}

// arrival is one scheduled client action.
type arrival struct {
	Class string
	Due   time.Duration // offset from the start of the window
	// Specs: the spec of a simulate request, or a batch's entries.
	Specs []spec.RunSpec
	// Primed indexes the primed spec a hit or not_modified request repeats
	// (-1 otherwise); StaleETag makes a not_modified request send an ETag
	// that does not match.
	Primed    int
	StaleETag bool
}

// width is how many connections the arrival occupies at once.
func (a arrival) width() int {
	if a.Class == classCoalesced {
		return 2
	}
	return 1
}

// Controlled serve specs draw their mechanism and sensor delay from these
// sets. The primed specs cover every (impedance, mechanism, delay) point,
// so set-up pays each threshold solve once and a cold request's cost is
// its own run, not whichever solve it happens to be first to need.
var (
	serveMechanisms = []string{"FU", "FU/DL1/IL1"}
	serveDelays     = []int{1, 3}
)

// specGen deals never-before-seen simulate specs from one fixed sequence
// of run costs: card j runs workload j mod 9, at an impedance that cycles
// so that every workload meets every impedance once in 27 cards, with the
// mechanism and the sensor delay cycling too. Each request class deals
// its own cards from the start of the sequence, so every seed asks the
// engine for the same runs in each class; the seed only orders them and
// gives each spec a distinct spec seed.
type specGen struct {
	rng  *rand.Rand
	pool []string
	n    int // specs dealt so far
}

// card returns the j-th spec of the sequence, with a fresh spec seed.
func (g *specGen) card(j int, controlled bool) spec.RunSpec {
	var sp spec.RunSpec
	w := len(g.pool)
	sp.Workload.Name = g.pool[j%w]
	sp.Workload.Iterations = simIterations
	sp.PDN.ImpedancePct = simImpedances[(j+j/w)%len(simImpedances)]
	sp.Control.Enabled = controlled
	if controlled {
		sp.Actuator.Mechanism = serveMechanisms[j%len(serveMechanisms)]
		sp.Sensor.DelayCycles = serveDelays[j/len(serveMechanisms)%len(serveDelays)]
	}
	sp.Budget.MaxCycles = serveCycles
	sp.Budget.WarmupCycles = serveWarmup
	// A distinct seed makes every generated spec a distinct key.
	sp.Seed = spec.NewSeed(int64(g.rng.Int31())<<20 | int64(g.n))
	g.n++
	return sp
}

// deal returns the first k cards of the sequence in seeded order; card j
// runs without the controller when open(j) is true.
func (g *specGen) deal(k int, open func(j int) bool) []spec.RunSpec {
	specs := make([]spec.RunSpec, k)
	for j := range specs {
		specs[j] = g.card(j, !open(j))
	}
	g.rng.Shuffle(k, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// servePlan is the seeded input of one serve run.
type servePlan struct {
	Primed   []spec.RunSpec
	Schedule []arrival
}

// planServe generates the primed specs and the arrival schedule: exact
// per-class counts for the window, in seeded order, at seeded random
// inter-arrival times.
func planServe(seed int64, seconds float64) servePlan {
	rng := rand.New(rand.NewSource(seed))
	gen := &specGen{rng: rng, pool: simPool()}
	var plan servePlan
	for _, z := range simImpedances {
		for _, m := range serveMechanisms {
			for _, d := range serveDelays {
				sp := gen.card(len(plan.Primed), true)
				sp.PDN.ImpedancePct = z
				sp.Actuator.Mechanism = m
				sp.Sensor.DelayCycles = d
				plan.Primed = append(plan.Primed, sp)
			}
		}
	}
	primed := len(plan.Primed)
	n := int(math.Round(serveRate * seconds))
	if n < len(serveMix) {
		n = len(serveMix)
	}
	var classes []string
	count := map[string]int{}
	for _, m := range serveMix {
		k := int(math.Round(m.share * float64(n)))
		if k < 1 {
			k = 1
		}
		count[m.class] = k
		for j := 0; j < k; j++ {
			classes = append(classes, m.class)
		}
	}
	// The engine classes (cold, coalesced, batch) arrive at least
	// engineGap apart, so a few of them do not pile up on the two
	// connections and the tail measures the engine path rather than the
	// luck of the draw. The cache classes arrive as a Poisson process.
	var engine, cache []string
	for _, c := range classes {
		if c == classHit || c == classNotModified {
			cache = append(cache, c)
		} else {
			engine = append(engine, c)
		}
	}
	span := float64(n) / serveRate
	rng.Shuffle(len(engine), func(i, j int) { engine[i], engine[j] = engine[j], engine[i] })
	rng.Shuffle(len(cache), func(i, j int) { cache[i], cache[j] = cache[j], cache[i] })
	due := func(cs []string, gap float64) []arrival {
		mean := math.Max(span/float64(len(cs))-gap, 0)
		out := make([]arrival, len(cs))
		t := 0.0
		for i, c := range cs {
			t += gap + rng.ExpFloat64()*mean
			out[i] = arrival{Class: c, Due: time.Duration(t * float64(time.Second)), Primed: -1}
		}
		return out
	}
	merged := append(due(engine, engineGap.Seconds()), due(cache, 0)...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Due < merged[j].Due })
	// One cold spec in four runs open loop (no controller).
	cold := gen.deal(count[classCold], func(j int) bool { return j%4 == 3 })
	coalesced := gen.deal(count[classCoalesced], func(int) bool { return false })
	fresh := gen.deal(count[classBatch], func(int) bool { return false })
	nm := 0
	for _, a := range merged {
		switch a.Class {
		case classCold:
			a.Specs, cold = []spec.RunSpec{cold[0]}, cold[1:]
		case classCoalesced:
			a.Specs, coalesced = []spec.RunSpec{coalesced[0]}, coalesced[1:]
		case classHit:
			a.Primed = rng.Intn(primed)
		case classNotModified:
			a.Primed = rng.Intn(primed)
			nm++
			a.StaleETag = nm%staleETagNth == 0
		case classBatch:
			// Two stored specs, one new, and a duplicate of one of them.
			x, y := rng.Intn(primed), rng.Intn(primed)
			a.Specs = []spec.RunSpec{plan.Primed[x], plan.Primed[y], fresh[0], fresh[0]}
			if rng.Intn(2) == 0 {
				a.Specs[3] = plan.Primed[x]
			}
			fresh = fresh[1:]
		}
		plan.Schedule = append(plan.Schedule, a)
	}
	return plan
}

// sample is one finished request.
type sample struct {
	arrival int // index into the schedule
	class   string
	latency time.Duration // done minus due
	late    time.Duration // sent minus due
	status  int
	body    []byte
	etag    string
	err     error
}

// runOpenLoop sends each arrival at its due time on free connections; an
// arrival due while all its connections are busy waits for them, and
// every latency is timed from the due time, so a stall is charged to the
// requests queued behind it. do executes one arrival on the given
// connection indexes and returns one sample per request with its
// completion time.
func runOpenLoop(sched []arrival, conns int, do func(a arrival, conn []int) ([]sample, []time.Time)) []sample {
	free := make(chan int, conns)
	for i := 0; i < conns; i++ {
		free <- i
	}
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.Due)
		sleepUntil(due)
		ids := make([]int, a.width())
		for k := range ids {
			ids[k] = <-free
		}
		sent := time.Now()
		wg.Add(1)
		go func(i int, a arrival, ids []int) {
			defer wg.Done()
			ss, done := do(a, ids)
			for k := range ss {
				ss[k].arrival = i
				ss[k].latency = done[k].Sub(due)
				ss[k].late = sent.Sub(due)
			}
			mu.Lock()
			out = append(out, ss...)
			mu.Unlock()
			for _, id := range ids {
				free <- id
			}
		}(i, a, ids)
	}
	wg.Wait()
	return out
}

// sleepUntil returns at t: it sleeps to within a millisecond of t, then
// yields until t, so timer slack does not make the generator late.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// didtd is an in-process server behind a loopback listener.
type didtd struct {
	dir    string
	hs     *http.Server
	srv    *server.Server
	url    string
	served chan error
}

// startDidtd builds the server with cmd/didtd's defaults: two concurrent
// runs, queue of eight, spans on, JSON access log at info (to a discard
// sink), and a durable store in a temporary directory.
func startDidtd() (*didtd, error) {
	dir, err := os.MkdirTemp(buildDir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{Capacity: 4096, Registry: telemetry.Default()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	logger := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	sim.SetCacheLogger(logger)
	tracer := telemetry.NewTracer(0)
	tracer.SetSpanRingCap(telemetry.DefaultSpanRingCap)
	tracer.SetEnabled(true)
	srv := server.New(server.Config{MaxConcurrent: 2, QueueDepth: 8, Store: st, Logger: logger, Spans: tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &didtd{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains and closes the server, waits for its serve loop, and
// removes the store directory.
func (d *didtd) stop() error {
	d.srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// newClient returns a client that keeps exactly one connection open.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// post sends one request and reads the whole answer.
func post(c *http.Client, url string, body []byte, ifNoneMatch string) sample {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return sample{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.Do(req)
	if err != nil {
		return sample{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return sample{status: resp.StatusCode, body: b, etag: resp.Header.Get("ETag"), err: err}
}

func simulateBody(sp spec.RunSpec) []byte {
	b, _ := json.Marshal(server.SimulateRequest{Spec: &sp}) // plain data, cannot fail
	return b
}

func batchBody(specs []spec.RunSpec) []byte {
	b, _ := json.Marshal(server.BatchRequest{Specs: specs}) // plain data, cannot fail
	return b
}

// primed is one stored answer the hit and not_modified classes repeat.
type primed struct {
	body []byte
	etag string
}

// serveSetup builds the server and primes its store through the engine.
func serveSetup(plan servePlan) (*didtd, []primed, error) {
	d, err := startDidtd()
	if err != nil {
		return nil, nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	var ps []primed
	for _, sp := range plan.Primed {
		s := post(c, d.url+"/v1/simulate", simulateBody(sp), "")
		if s.err != nil || s.status != http.StatusOK || s.etag == "" {
			d.stop()
			return nil, nil, fmt.Errorf("priming: status %d, err %v, body %.200s", s.status, s.err, s.body)
		}
		ps = append(ps, primed{body: s.body, etag: s.etag})
	}
	return d, ps, nil
}

// serveRun is the measured result of one serve window.
type serveRun struct {
	samples []sample
	window  time.Duration
	cpu     time.Duration
	before  telemetry.Snapshot
	after   telemetry.Snapshot
	bodies  [][]byte // every 200 simulate body, for the store probe
}

// driveServe plays the schedule against d from two connections, with one
// span per arrival.
func driveServe(d *didtd, plan servePlan, ps []primed, rec *recorder) *serveRun {
	clients := make([]*http.Client, serveConns)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	do := func(a arrival, conn []int) ([]sample, []time.Time) {
		req := rec.newRequest()
		_, end := rec.start("server."+a.Class, req, 0)
		defer end()
		switch a.Class {
		case classCoalesced:
			body := simulateBody(a.Specs[0])
			ss := make([]sample, 2)
			done := make([]time.Time, 2)
			var wg sync.WaitGroup
			for k := range ss {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					ss[k] = post(clients[conn[k]], d.url+"/v1/simulate", body, "")
					ss[k].class = a.Class
					done[k] = time.Now()
				}(k)
			}
			wg.Wait()
			return ss, done
		case classBatch:
			s := post(clients[conn[0]], d.url+"/v1/batch", batchBody(a.Specs), "")
			s.class = a.Class
			return []sample{s}, []time.Time{time.Now()}
		}
		var body []byte
		inm := ""
		if a.Primed >= 0 {
			body = simulateBody(plan.Primed[a.Primed])
			if a.Class == classNotModified {
				inm = ps[a.Primed].etag
				if a.StaleETag {
					inm = `"stale"`
				}
			}
		} else {
			body = simulateBody(a.Specs[0])
		}
		s := post(clients[conn[0]], d.url+"/v1/simulate", body, inm)
		s.class = a.Class
		return []sample{s}, []time.Time{time.Now()}
	}
	r := &serveRun{before: telemetry.Default().Snapshot()}
	cpu0 := cpuTime()
	t0 := time.Now()
	r.samples = runOpenLoop(plan.Schedule, serveConns, do)
	r.window = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	r.after = telemetry.Default().Snapshot()
	return r
}

// serveCheck checks a window's answers once it is over, so checking
// never delays a request.
type serveCheck struct {
	o         *outcome
	ps        []primed
	primedKey map[string]int // resolved key -> index into ps
	bodies    [][]byte       // fresh simulate bodies, for the store layer
	// fresh is the simulated cycles of each new spec answered in the
	// window, by resolved key: the engine work the window asked for,
	// whichever path served it.
	fresh map[string]uint64
}

func newServeCheck(o *outcome, plan servePlan, ps []primed) *serveCheck {
	c := &serveCheck{o: o, ps: ps, primedKey: map[string]int{}, fresh: map[string]uint64{}}
	for i, sp := range plan.Primed {
		c.primedKey[sp.Key()] = i
	}
	return c
}

func (c *serveCheck) failf(format string, args ...any) { c.o.fail(format, args...) }

// checkAll checks every arrival's answers.
func (c *serveCheck) checkAll(sched []arrival, samples []sample) {
	byArrival := make([][]sample, len(sched))
	for _, s := range samples {
		byArrival[s.arrival] = append(byArrival[s.arrival], s)
	}
	for i, a := range sched {
		c.check(a, byArrival[i])
	}
}

// check verifies one arrival's answers.
func (c *serveCheck) check(a arrival, ss []sample) {
	if len(ss) != a.width() {
		c.failf("%s: %d answers for %d requests", a.Class, len(ss), a.width())
		return
	}
	for _, s := range ss {
		if s.err != nil {
			c.failf("%s: %v", a.Class, s.err)
			return
		}
	}
	switch a.Class {
	case classCold:
		c.checkFresh(a.Specs[0], ss[0])
	case classCoalesced:
		c.checkFresh(a.Specs[0], ss[0])
		if ss[1].status != http.StatusOK || !bytes.Equal(ss[0].body, ss[1].body) {
			c.failf("coalesced: halves differ (status %d/%d)", ss[0].status, ss[1].status)
		}
	case classHit:
		c.checkStored(a, ss[0], false)
	case classNotModified:
		c.checkStored(a, ss[0], !a.StaleETag)
	case classBatch:
		c.checkBatch(a, ss[0])
	}
}

// checkFresh checks a spec's first answer: 200 and carrying the spec's
// own resolved key.
func (c *serveCheck) checkFresh(sp spec.RunSpec, s sample) {
	if s.status != http.StatusOK {
		c.failf("simulate: status %d: %.200s", s.status, s.body)
		return
	}
	r, err := sp.Resolve()
	if err != nil {
		c.failf("simulate: %v", err)
		return
	}
	var resp server.SimulateResponse
	if err := json.Unmarshal(s.body, &resp); err != nil || resp.SpecKey != r.Key() {
		c.failf("simulate: body does not carry spec key %s (%v)", r.Key(), err)
		return
	}
	c.bodies = append(c.bodies, s.body)
	c.fresh[resp.SpecKey] = resp.Cycles
}

// checkStored checks a repeat of a primed spec: 304 when the ETag
// matches, otherwise 200 with the primed bytes.
func (c *serveCheck) checkStored(a arrival, s sample, want304 bool) {
	p := c.ps[a.Primed]
	switch {
	case want304 && s.status != http.StatusNotModified:
		c.failf("%s: want 304 for a matching ETag, got %d", a.Class, s.status)
	case !want304 && s.status != http.StatusOK:
		c.failf("%s: want 200, got %d", a.Class, s.status)
	case !want304 && !bytes.Equal(s.body, p.body):
		c.failf("%s: body differs from the spec's first answer", a.Class)
	case s.etag != p.etag:
		c.failf("%s: ETag %s, want %s", a.Class, s.etag, p.etag)
	}
}

// checkBatch checks a batch's NDJSON records: one ok record per entry,
// stored entries equal to their first answer, duplicates equal to each
// other.
func (c *serveCheck) checkBatch(a arrival, s sample) {
	if s.status != http.StatusOK {
		c.failf("batch: status %d", s.status)
		return
	}
	bodies := make([][]byte, len(a.Specs))
	sc := bufio.NewScanner(bytes.NewReader(s.body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	n := 0
	for sc.Scan() {
		var rec server.BatchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Index < 0 || rec.Index >= len(a.Specs) {
			c.failf("batch: bad record %.200s", sc.Bytes())
			return
		}
		if rec.Status != "ok" {
			c.failf("batch: entry %d: %s", rec.Index, rec.Error)
			return
		}
		bodies[rec.Index] = rec.Body
		n++
	}
	if n != len(a.Specs) {
		c.failf("batch: %d records for %d entries", n, len(a.Specs))
		return
	}
	keys := make([]string, len(a.Specs))
	for i, sp := range a.Specs {
		keys[i] = sp.Key()
		if k, ok := c.primedKey[keys[i]]; ok {
			if !jsonEqual(bodies[i], c.ps[k].body) {
				c.failf("batch: entry %d differs from its stored answer", i)
			}
		} else {
			var resp server.SimulateResponse
			if err := json.Unmarshal(bodies[i], &resp); err != nil {
				c.failf("batch: entry %d: %v", i, err)
			}
			c.fresh[keys[i]] = resp.Cycles
		}
		for j := 0; j < i; j++ {
			if keys[j] == keys[i] && !bytes.Equal(bodies[i], bodies[j]) {
				c.failf("batch: duplicate entries %d and %d differ", j, i)
			}
		}
	}
}

// jsonEqual compares two JSON documents after compaction.
func jsonEqual(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// serveResult is a serve window's samples grouped by class.
type serveResult struct {
	byClass map[string][]float64 // latency ms
	all     []float64
	lateMS  []float64
}

func summarize(run *serveRun) serveResult {
	r := serveResult{byClass: map[string][]float64{}}
	for _, s := range run.samples {
		ms := float64(s.latency.Nanoseconds()) / 1e6
		r.byClass[s.class] = append(r.byClass[s.class], ms)
		r.all = append(r.all, ms)
		r.lateMS = append(r.lateMS, float64(s.late.Nanoseconds())/1e6)
	}
	return r
}

// classTail is the per-class tail: the highest ladder percentile with ten
// samples beyond it, or the maximum when there are too few.
func classTail(xs []float64) (float64, float64) {
	p := tailPercentile(len(xs))
	if p == 0 {
		p = 100
	}
	return p, percentile(xs, p)
}

// serveWindow plans, sets up and drives one serve window. Before the
// in-process set-up, extra set-up rounds run in fresh child processes, so
// every round that enters the setup_s median starts with empty memos. It
// returns the outcome with its end-to-end metrics, and the run.
func serveWindow(p params, rec *recorder, extra int) (*outcome, *serveRun, error) {
	o := newOutcome()
	plan := planServe(p.seed, p.seconds)
	var setup []float64
	var etags [][]string
	for i := 0; i < extra; i++ {
		r, err := spawnServeSetup(p.seed)
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, float64(r.NS)/1e9)
		etags = append(etags, r.ETags)
	}
	t0 := time.Now()
	d, ps, err := serveSetup(plan)
	if err != nil {
		return nil, nil, err
	}
	setup = append(setup, time.Since(t0).Seconds())
	// A child's primed answers must carry the same ETags (spec key and
	// body digest) as this process's.
	for _, et := range etags {
		o.attempted++
		for i := range ps {
			if i >= len(et) || et[i] != ps[i].etag {
				o.fail("set-up: a fresh process primed spec %d with a different answer", i)
				break
			}
		}
	}
	run := driveServe(d, plan, ps, rec)
	if err := d.stop(); err != nil {
		return nil, nil, err
	}
	chk := newServeCheck(o, plan, ps)
	chk.checkAll(plan.Schedule, run.samples)
	run.bodies = chk.bodies
	res := summarize(run)
	o.attempted += len(run.samples)
	o.set("setup_s", median(setup), "s")
	setLatency(o, res.all, serveTail)
	// Engine runs overlap and queue behind each other here, so simulated
	// cycles are divided by the process's CPU seconds, not by latency.
	// The cycles are those of the new specs answered in the window, a
	// fixed amount of work, rather than a counter that also counts cycles
	// served from a cache.
	var cycles uint64
	for _, c := range chk.fresh {
		cycles += c
	}
	o.set("sim_mcycles_per_s", float64(cycles)/run.cpu.Seconds()/1e6, "Mcycles/s")
	o.set("cpu_ms_per_op", run.cpu.Seconds()*1e3/float64(len(run.samples)), "ms")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	for _, m := range serveMix {
		xs := res.byClass[m.class]
		tp, tv := classTail(xs)
		o.notef("serve_%s_p50_ms %.3f ms, serve_%s_tail_ms %.3f ms (p%g of %d)",
			m.class, median(xs), m.class, tv, tp, len(xs))
	}
	o.notef("serve: %d arrivals at %.0f/s over %d connections, window %.2f s, cpu_s %.3f s, generator late p99 %.3f ms",
		len(plan.Schedule), serveRate, serveConns, run.window.Seconds(), run.cpu.Seconds(), percentile(res.lateMS, 99))
	return o, run, nil
}

func measureServe(p params) (*outcome, error) {
	o, _, err := serveWindow(p, nil, serveRounds-1)
	return o, err
}

// setupReport is what a set-up child reports: its set-up time and the
// ETag of each primed answer.
type setupReport struct {
	NS    int64    `json:"ns"`
	ETags []string `json:"etags"`
}

// runServeSetupChild runs one serve set-up in this (fresh) process, stops
// the server, and prints a setupReport.
func runServeSetupChild(seed int64) int {
	t0 := time.Now()
	d, ps, err := serveSetup(planServe(seed, 0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	rep := setupReport{NS: time.Since(t0).Nanoseconds()}
	for _, p := range ps {
		rep.ETags = append(rep.ETags, p.etag)
	}
	if err := d.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// spawnServeSetup runs one serve set-up in a fresh process.
func spawnServeSetup(seed int64) (*setupReport, error) {
	out, _, err := runChild("serve-setup", seed, false)
	if err != nil {
		return nil, err
	}
	var r setupReport
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("serve set-up child report: %w", err)
	}
	return &r, nil
}
