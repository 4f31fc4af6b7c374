package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	stdruntime "runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"mtask"
	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/ode"
	"mtask/internal/plan"
	"mtask/internal/serve"
)

// serve-hot: an open loop into the in-process planning service with the
// daemon's defaults. Every body was planned while setting up, so every
// plan is a cache hit and the request path — decode, cache lookup,
// response encode and, for /v1/simulate, the cluster simulator — is all
// that is measured.

const (
	serveBodies     = 32
	serveNominalRPS = 100.0
	// serveNominalSenders send the nominal-rate phases. One sender
	// leaves the second core to the collector and the timers, so the
	// figure measures the request path rather than how the host shares
	// two cores among the senders, the collector and other tenants.
	serveNominalSenders = 1
	serveLimitMS        = 50.0
	servePlanShare      = 0.7
	// serveMixBlocks is the number of blocks in the request mix.
	serveMixBlocks = 64
	// The ladder: serveClimbs climbs of usually at most serveMaxRungs
	// rungs, stepping by serveRungStep (at most 5%).
	serveClimbs   = 2
	serveRungStep = 1.05
	serveRungTime = 850 * time.Millisecond
	serveMaxRungs = 6
	// serveAbandon stops a rung whose sender fell this far behind.
	serveAbandon = 250 * time.Millisecond
	// serveLadderFloor is the lowest rate a climb steps down to. It is
	// below the nominal rate so that a host slow enough to fail the
	// nominal rate's tail still gets a figure rather than a failed run.
	serveLadderFloor = serveNominalRPS / 2
	serveProbe       = 1500 * time.Millisecond
	// A traced run re-times the layers of every serveRetimeEvery-th
	// request, serveRetimeReps times each; sampling keeps the
	// re-timing's own cost from backing up the senders.
	serveRetimeEvery = 8
	serveRetimeReps  = 3
)

// serveBody is one request body of the fixed set with its library
// reference results.
type serveBody struct {
	body    []byte
	key     plan.Key
	tasks   int
	planRef float64 // schedule makespan of a library Plan
	simRef  float64 // makespan of a library Simulate
}

// serveSolvers are the solver graph builders of the body set.
var serveSolvers = []func(n, steps int) *graph.Graph{
	func(n, steps int) *graph.Graph { return ode.BuildEPOLGraph(n, 600, 8, steps) },
	func(n, steps int) *graph.Graph { return ode.BuildIRKGraph(n, 600, 4, 2, steps) },
	func(n, steps int) *graph.Graph { return ode.BuildDIIRKGraph(n, 600, 4, 2, steps) },
	func(n, steps int) *graph.Graph { return ode.BuildPABGraph(n, 600, 8, 0, steps) },
	func(n, steps int) *graph.Graph { return ode.BuildPABGraph(n, 600, 8, 2, steps) },
}

var (
	servePartitions = []int{16, 32, 64, 128, 256, 512, 1024}
	serveStrategies = []string{"", "consecutive", "scattered", "mixed:2"}
)

// serveRequests builds the seeded body set. Body j has a fixed shape —
// solver j mod 5, 2 to 16 steps rising with j, partitions falling from
// 1024 to 16 cores as the steps rise (a placement lists every core of
// every task, so this bounds the largest responses), and strategy j mod
// 4 — so every seed serves the same mix of sizes; the
// seed draws each body's system size n, which changes the cost
// annotations and with them the fingerprints and the schedules. Bodies
// are distinct planner fingerprints.
func serveRequests(seed int64) ([]serveBody, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[plan.Key]bool)
	var out []serveBody
	for len(out) < serveBodies {
		j := len(out)
		steps := 2 + j*14/(serveBodies-1)
		g := serveSolvers[j%len(serveSolvers)](1000+rng.Intn(79001), steps)
		m := arch.CHiC().SubsetCores(servePartitions[len(servePartitions)-1-j*len(servePartitions)/serveBodies])
		strat := serveStrategies[j%len(serveStrategies)]
		req := &serve.PlanRequest{Graph: g, Machine: m, Options: serve.PlanOptions{Strategy: strat}}
		key, err := requestKey(req)
		if err != nil {
			return nil, err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out = append(out, serveBody{body: body, key: key, tasks: g.Len()})
	}
	return out, nil
}

// requestKey is the part of the planner's cache key a body determines.
func requestKey(req *serve.PlanRequest) (plan.Key, error) {
	s, err := requestStrategy(req)
	if err != nil {
		return plan.Key{}, err
	}
	return plan.Key{
		Graph:    plan.GraphFingerprint(req.Graph),
		Machine:  plan.MachineFingerprint(req.Machine),
		Strategy: s.Name(),
		P:        req.Machine.TotalCores(),
	}, nil
}

func requestStrategy(req *serve.PlanRequest) (core.Strategy, error) {
	if req.Options.Strategy == "" {
		return core.Consecutive{}, nil
	}
	return core.StrategyByName(req.Options.Strategy)
}

// references fills every body's library Plan and Simulate makespans,
// planned by an independent planner without cache or incremental reuse.
func references(ctx context.Context, bodies []serveBody) error {
	p := plan.New()
	for i := range bodies {
		var req serve.PlanRequest
		if err := json.Unmarshal(bodies[i].body, &req); err != nil {
			return err
		}
		s, err := requestStrategy(&req)
		if err != nil {
			return err
		}
		mp, err := p.Plan(ctx, req.Graph, req.Machine, plan.WithStrategy(s), plan.WithoutCache(), plan.WithoutIncremental())
		if err != nil {
			return fmt.Errorf("reference plan of body %d: %w", i, err)
		}
		res, err := mtask.SimulateCtx(ctx, mp)
		if err != nil {
			return fmt.Errorf("reference simulation of body %d: %w", i, err)
		}
		bodies[i].planRef, bodies[i].simRef = mp.Schedule.Time, res.Makespan
	}
	return nil
}

// serveSetup is one set-up: the body set, a server with the daemon's
// defaults, and a primed cache.
type serveSetup struct {
	bodies []serveBody
	srv    *serve.Server
	h      http.Handler
}

func newServeSetup(ctx context.Context, seed int64) (*serveSetup, error) {
	bodies, err := serveRequests(seed)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.WithRecorder(obs.New(0, obs.WithName("mtaskd"))))
	s := &serveSetup{bodies: bodies, srv: srv, h: srv.Handler()}
	for i := range bodies {
		if code, _ := s.post(&bodies[i], false); code != http.StatusOK {
			return nil, fmt.Errorf("priming body %d: status %d", i, code)
		}
	}
	return s, nil
}

// post sends one body and returns the status and the response's makespan.
func (s *serveSetup) post(b *serveBody, simulate bool) (int, float64) {
	path := "/v1/plan"
	if simulate {
		path = "/v1/simulate"
	}
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b.body)))
	if w.Code != http.StatusOK {
		return w.Code, 0
	}
	return w.Code, responseMakespan(w.Body.Bytes())
}

// responseMakespan reads the "makespan" field of a plan or simulate
// response without decoding the placements; NaN if it is missing.
func responseMakespan(body []byte) float64 {
	const field = `"makespan":`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return math.NaN()
	}
	rest := body[i+len(field):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// serveMix is the seeded request sequence: which body, and whether it
// goes to /v1/simulate or /v1/plan. It is made of blocks in which every
// body is sent ten times, seven to /v1/plan and three to /v1/simulate,
// in a seeded order, so any few hundred consecutive requests carry the
// 70/30 mix over the whole body set.
type serveMix struct {
	body []int
	sim  []bool
}

func newServeMix(seed int64, blocks, bodies int) serveMix {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	var m serveMix
	for b := 0; b < blocks; b++ {
		start := len(m.body)
		for i := 0; i < bodies; i++ {
			for k := 0; k < 10; k++ {
				m.body = append(m.body, i)
				m.sim = append(m.sim, float64(k) >= 10*servePlanShare)
			}
		}
		rng.Shuffle(len(m.body)-start, func(x, y int) {
			x, y = start+x, start+y
			m.body[x], m.body[y] = m.body[y], m.body[x]
			m.sim[x], m.sim[y] = m.sim[y], m.sim[x]
		})
	}
	return m
}

// serveLoad runs one open-loop phase and checks every response.
type serveLoad struct {
	s   *serveSetup
	mix serveMix
	off int // offset into the mix, so phases send different sequences

	mu       sync.Mutex
	checkErr error
}

func (l *serveLoad) request(i int) (*serveBody, bool) {
	j := (l.off + i) % len(l.mix.body)
	return &l.s.bodies[l.mix.body[j]], l.mix.sim[j]
}

// send posts request i and checks its makespan against the reference.
func (l *serveLoad) send(i int) bool {
	b, sim := l.request(i)
	code, got := l.s.post(b, sim)
	if code != http.StatusOK {
		return false
	}
	want := b.planRef
	if sim {
		want = b.simRef
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		l.fail(fmt.Errorf("response makespan %v for body %x (simulate %v), library says %v", got, b.key.Graph, sim, want))
	}
	return true
}

func (l *serveLoad) fail(err error) {
	l.mu.Lock()
	if l.checkErr == nil {
		l.checkErr = err
	}
	l.mu.Unlock()
}

// phase sends the next n requests of the mix at rate from the given
// number of senders.
func (l *serveLoad) phase(n, senders int, rate float64, after func(i int, s shot)) []shot {
	n = max(n, 1)
	shots := openLoop(rate, n, senders, serveAbandon, l.send, after)
	l.off += n
	return shots
}

// senders is the ladder's and the probe's goroutine count: one per core.
func senders() int { return stdruntime.NumCPU() }

// probe runs a closed loop with every sender for d, counting its
// requests into o, and returns the completed requests per second: the
// ladder's starting estimate.
func (l *serveLoad) probe(d time.Duration, o *outcome) float64 {
	var (
		wg           sync.WaitGroup
		mu           sync.Mutex
		done, failed int
		start        = time.Now()
	)
	for w := 0; w < senders(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Since(start) < d; i += senders() {
				ok := l.send(i)
				mu.Lock()
				done++
				if !ok {
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	l.off += done
	o.Attempted += done
	o.Failed += failed
	return float64(done-failed) / time.Since(start).Seconds()
}

// lateMS returns how late, in ms, each sent shot began.
func lateMS(shots []shot) []float64 {
	out := make([]float64, 0, len(shots))
	for _, s := range shots {
		if s.Sent {
			out = append(out, ms(s.Late()))
		}
	}
	return out
}

func countShots(o *outcome, shots []shot) {
	for _, s := range shots {
		if s.Sent {
			o.Attempted++
			if !s.OK {
				o.Failed++
			}
		}
	}
}

func runServeHot(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	setupS, s, err := timeSetup(func() (*serveSetup, error) { return newServeSetup(ctx, cfg.seed) })
	o.SetupS = setupS
	if err != nil {
		return o, err
	}
	if err := references(ctx, s.bodies); err != nil {
		return o, err
	}
	l := &serveLoad{s: s, mix: newServeMix(cfg.seed, serveMixBlocks, len(s.bodies))}

	if cfg.trace {
		err = serveTraced(ctx, cfg, l, o)
	} else {
		err = serveMeasured(cfg, l, o)
	}
	if err != nil {
		return o, err
	}
	if l.checkErr != nil {
		return o, l.checkErr
	}
	// One planning pass per distinct fingerprint, during priming: a
	// cold plan or an incremental one (a body that extends another's
	// family reuses its layers).
	m := s.srv.Metrics()
	if passes := m["serve.plans_cold"] + m["serve.plans_incremental"]; passes != int64(len(s.bodies)) {
		return o, fmt.Errorf("%d planning passes (%d cold + %d incremental) for %d distinct fingerprints",
			passes, m["serve.plans_cold"], m["serve.plans_incremental"], len(s.bodies))
	}
	if o.Failed > 0 {
		return o, fmt.Errorf("%d of %d requests failed", o.Failed, o.Attempted)
	}
	return o, nil
}

// serveMeasured is the untraced run: the closed-loop probe, which also
// warms the heap and caches up, then the nominal-rate windows and the
// ladder's climbs, interleaved.
func serveMeasured(cfg config, l *serveLoad, o *outcome) error {
	est := l.probe(serveProbe, o)
	o.add("serve.closed_loop_rps", "1/s", est)

	// The nominal phase sends whole blocks of the mix, at least one, in
	// the time the ladder leaves; each block is one window. The windows
	// run in groups before, between and after the climbs, so a slowdown
	// of the host over part of the run reaches only some of them.
	ladder := serveProbe + serveClimbs*serveMaxRungs*serveRungTime
	block := len(l.mix.body) / serveMixBlocks
	windows := max(1, int((cfg.seconds-ladder).Seconds()*serveNominalRPS)/block)
	var (
		shots []shot
		meds  []float64 // each window's median latency
		alloc uint64
	)
	nominal := func(upto int) {
		for len(meds) < upto {
			stdruntime.GC()
			before := allocated()
			w := l.phase(block, serveNominalSenders, serveNominalRPS, nil)
			alloc += allocated() - before
			shots = append(shots, w...)
			meds = append(meds, median(latenciesMS(w)))
		}
	}

	// Ladder: the first climb starts at the probe's estimate, the
	// second two steps below where the first ended; max_rps is the mean
	// of their highest passing rates.
	var found []float64
	start := est
	for c := 0; c < serveClimbs; c++ {
		nominal((c + 1) * windows / (serveClimbs + 1))
		// Collect the previous phase's garbage first, so its debt is not
		// charged to the first rung.
		stdruntime.GC()
		if r := l.climb(o, c, start); r > 0 {
			found = append(found, r)
			start = r / (serveRungStep * serveRungStep)
		}
	}
	nominal(windows)
	if len(found) == 0 {
		return fmt.Errorf("no ladder rung met the %.0f ms limit", serveLimitMS)
	}
	o.Rate = mean(found)
	o.add("serve.max_rps", "1/s", o.Rate)

	attempted := o.Attempted
	countShots(o, shots)
	o.AllocKB = float64(alloc) / 1024 / float64(o.Attempted-attempted)
	o.setOps(latenciesMS(shots))
	o.add("serve.p50_ms", "ms", o.P50)
	o.add(fmt.Sprintf("serve.p%g_ms", o.TailP), "ms", o.Tail)
	o.add("loadgen.late_p50_ms", "ms", median(lateMS(shots)))
	// The reported p50 is the lowest of the windows' medians, so a host
	// slowdown that spares one window does not move it; every window
	// sends the same requests.
	o.P50 = slices.Min(meds)
	o.add(fmt.Sprintf("serve.window_p50_ms (lowest of %d windows)", windows), "ms", o.P50)
	return nil
}

// climb runs one ladder climb from rate. Until a rung passes it steps
// down, for as many rungs as that takes while the rate stays above
// serveLadderFloor; from the first pass on it steps up, for at most
// serveMaxRungs rungs, and ends at the second failed rung in a row. It
// returns the highest passing rate, 0 if none passed.
func (l *serveLoad) climb(o *outcome, c int, rate float64) float64 {
	var rungs []rung
	firstPass := -1
	for !ladderDone(rungs, serveLimitMS) && rate >= serveLadderFloor {
		if firstPass >= 0 && len(rungs)-firstPass >= serveMaxRungs {
			break
		}
		r := rung{Rate: rate, Shots: l.phase(int(rate*serveRungTime.Seconds()), senders(), rate, nil)}
		countShots(o, r.Shots)
		rungs = append(rungs, r)
		_, t := tail(latenciesMS(r.Shots))
		fmt.Printf("  climb %d rung %7.2f rps: tail %8.3f ms, backlog %v, pass %v\n",
			c, rate, t, growingBacklog(r.Shots, rate), r.passes(serveLimitMS))
		if firstPass < 0 && r.passes(serveLimitMS) {
			firstPass = len(rungs) - 1
		}
		if firstPass < 0 {
			rate /= serveRungStep
		} else {
			rate *= serveRungStep
		}
	}
	return maxPassingRate(rungs, serveLimitMS)
}

// serveTraced is the traced run: the nominal rate untraced, then traced
// with every layer call re-timed on the same request.
func serveTraced(ctx context.Context, cfg config, l *serveLoad, o *outcome) error {
	n := int(measuredShare * cfg.seconds.Seconds() * serveNominalRPS)
	base := l.phase(n, serveNominalSenders, serveNominalRPS, nil)
	countShots(o, base)

	rec := l.s.srv.Recorder()
	dropsBefore := rec.Drops()
	tr := newTracer(rec)
	var (
		mu                        sync.Mutex
		decode, hit, sim, handler []time.Duration
		self                      []time.Duration
		simTasks                  []float64
		hitsBefore                = l.s.srv.Metrics()["serve.cache_hits"]
		requestsBefore            = l.s.srv.Metrics()["serve.requests"]
	)
	// The open loop's clock starts within microseconds of this offset;
	// spans use the tracer's clock from here.
	var epoch int64
	traced := func(i int, sh shot) {
		b, isSim := l.request(i)
		track := i % serveNominalSenders
		due, start, end := epoch+int64(sh.Due), epoch+int64(sh.Start), epoch+int64(sh.End)
		root := tr.add(span{Name: "request", Cat: "loadgen", Parent: -1, Track: track, Start: due, End: end})
		tr.add(span{Name: "loadgen.late", Cat: "loadgen", Parent: root, Track: track, Start: due, End: start})
		h := tr.add(span{Name: "serve.handler", Cat: "serve", Parent: root, Track: track, Start: start, End: end})
		if i%serveRetimeEvery != 0 {
			return
		}

		names, durs, err := l.retime(ctx, b, isSim)
		if err != nil {
			l.fail(err)
			return
		}
		tr.retimed(h, track, start, names, durs)
		mu.Lock()
		handler = append(handler, sh.End-sh.Start)
		decode = append(decode, durs[0])
		hit = append(hit, durs[1])
		if isSim {
			sim = append(sim, durs[2])
			simTasks = append(simTasks, float64(b.tasks))
		}
		self = append(self, sh.End-sh.Start-durs[0]-durs[1])
		if isSim {
			self[len(self)-1] -= durs[2]
		}
		mu.Unlock()
	}
	epoch = tr.now()
	shots := l.phase(n, serveNominalSenders, serveNominalRPS, traced)
	countShots(o, shots)

	var rootSum time.Duration
	for _, s := range shots {
		if s.Sent {
			rootSum += s.Latency()
		}
	}
	late := lateMS(shots)
	rep := tr.decompose(rootSum)
	rep.print()
	m := l.s.srv.Metrics()
	requests := m["serve.requests"] - requestsBefore
	_, lateTail := tail(late)
	o.Layers = map[string]float64{
		"serve.handler_us":       us(meanDur(handler)),
		"serve.decode_us":        us(meanDur(decode)),
		"plan.hit_us":            us(meanDur(hit)),
		"cluster.simulate_us":    us(meanDur(sim)),
		"cluster.sim_tasks":      mean(simTasks),
		"serve.self_us":          us(meanDur(self)),
		"serve.cache_hit_ratio":  float64(m["serve.cache_hits"]-hitsBefore) / float64(requests),
		"serve.planning_passes":  float64(m["serve.plans_cold"] + m["serve.plans_incremental"]),
		"serve.shed":             float64(m["serve.shed"]),
		"loadgen.late_p99_ms":    lateTail,
		"obs.trace_overhead_pct": 100 * (median(latenciesMS(shots))/median(latenciesMS(base)) - 1),
		"obs.drops":              float64(rec.Drops() - dropsBefore),
		"obs.self_coverage_pct":  100 * rep.Coverage,
		"error_rate":             float64(o.Failed) / float64(o.Attempted),
	}
	if f := cfg.chromeFile(); f != "" {
		if err := tr.writeChrome(f, rec); err != nil {
			return err
		}
	}
	return checkCoverage(rep)
}

// retime re-times the layers one request passes through, on the same
// body: JSON decode of the body, the server's planner (a cache hit) and,
// for /v1/simulate, the cluster simulator. Each duration is the fastest
// of serveRetimeReps calls, so a collection or the other sender's burst
// in one call does not inflate it.
func (l *serveLoad) retime(ctx context.Context, b *serveBody, isSim bool) ([]string, []time.Duration, error) {
	best := make([]time.Duration, 3)
	for rep := 0; rep < serveRetimeReps; rep++ {
		t0 := time.Now()
		var req serve.PlanRequest
		if err := json.NewDecoder(bytes.NewReader(b.body)).Decode(&req); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		strat, err := requestStrategy(&req)
		if err != nil {
			return nil, nil, err
		}
		mp, err := l.s.srv.Planner().Plan(ctx, req.Graph, req.Machine, plan.WithStrategy(strat))
		if err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		d := []time.Duration{t1.Sub(t0), t2.Sub(t1), 0}
		if isSim {
			if _, err := mtask.SimulateCtx(ctx, mp); err != nil {
				return nil, nil, err
			}
			d[2] = time.Since(t2)
		}
		for k := range d {
			if rep == 0 || d[k] < best[k] {
				best[k] = d[k]
			}
		}
	}
	if isSim {
		return []string{"serve.decode", "plan.hit", "cluster.simulate"}, best, nil
	}
	return []string{"serve.decode", "plan.hit"}, best[:2], nil
}

// checkCoverage fails a traced run whose self times do not add up to
// within 5% of its traced end-to-end time.
func checkCoverage(rep selfReport) error {
	if math.Abs(rep.Coverage-1) > 0.05 {
		return fmt.Errorf("self times add up to %.2f%% of the traced end-to-end time, want within 5%%", 100*rep.Coverage)
	}
	return nil
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
