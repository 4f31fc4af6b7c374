package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/ode"
	"mtask/internal/plan"
)

// plan-cold: a closed loop with one caller of a default planner. Every
// request is a new fingerprint, so the schedule cache cannot help:
// chain contraction, layering, the g-search and the cost memo do all
// the work. A quarter of the requests extend an earlier request by a
// few time steps, which exercises the planner's incremental family
// index writing and then reading.

var coldPartitions = []int{64, 256, 1024}

// coldShape is the generator of one request graph: a builder kind, its
// parameters and the step count. Extending a request re-runs the same
// shape with more steps.
type coldShape struct {
	kind             int // 0: unrolled, 1..5: serveSolvers[kind-1]
	stages, chain, n int
	steps, cores     int
	extends          int // index of the extended request, -1 if fresh
	family           string
}

func (c coldShape) build() *graph.Graph {
	if c.kind == 0 {
		return ode.BuildUnrolledGraph(c.stages, c.chain, c.steps, c.n, 600)
	}
	return serveSolvers[c.kind-1](c.n, c.steps)
}

// coldStream generates the seeded request stream lazily: of every four
// requests three are fresh graphs and one extends an earlier fresh
// request by 1 to 4 steps. Fresh graphs come in blocks of the same 30
// shapes — 20 unrolled graphs spanning 8-64 stages, chains of 1-8 and
// 10-70 steps, and each solver twice with 2-16 steps — shuffled by the
// seed, which also draws every graph's system size n. So every seed
// plans the same spread of sizes in a different order, and every request
// is a new fingerprint.
type coldStream struct {
	rng    *rand.Rand
	block  []coldShape
	shapes []coldShape
	seen   map[string]bool
}

func newColdStream(seed int64) *coldStream {
	return &coldStream{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

// coldDesign is the block of fresh shapes, without n.
func coldDesign() []coldShape {
	var out []coldShape
	for k := 0; k < 20; k++ {
		out = append(out, coldShape{
			stages: 8 + k*56/19,
			chain:  1 + k*3%8,
			steps:  10 + k*7%20*60/19,
			cores:  coldPartitions[k%len(coldPartitions)],
		})
	}
	for k := 0; k < 10; k++ {
		out = append(out, coldShape{
			kind:  1 + k%len(serveSolvers),
			steps: 2 + k*3%10*14/9,
			cores: coldPartitions[(k+1)%len(coldPartitions)],
		})
	}
	return out
}

func (s *coldStream) next() coldShape {
	for {
		var c coldShape
		if len(s.shapes)%4 == 3 {
			base := s.shapes[s.rng.Intn(len(s.shapes))]
			if base.extends >= 0 {
				base = s.shapes[base.extends]
			}
			c = base
			c.steps += 1 + s.rng.Intn(4)
			c.extends = indexOf(s.shapes, base)
		} else {
			if len(s.block) == 0 {
				s.block = coldDesign()
				s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
			}
			c = s.block[0]
			s.block = s.block[1:]
			c.n = 1000 + s.rng.Intn(79001)
			c.extends = -1
			c.family = fmt.Sprintf("%d/%d/%d/%d/%d", c.kind, c.stages, c.chain, c.n, c.cores)
		}
		id := fmt.Sprintf("%s/%d", c.family, c.steps)
		if s.seen[id] {
			continue
		}
		s.seen[id] = true
		s.shapes = append(s.shapes, c)
		return c
	}
}

func indexOf(shapes []coldShape, c coldShape) int {
	for i, s := range shapes {
		if s.family == c.family && s.steps == c.steps && s.extends < 0 {
			return i
		}
	}
	return -1
}

// coldSetup is one set-up: the machines and a planner warmed by one plan
// of each graph kind on each of three partitions the stream never uses,
// so lazy initialisation is not charged to the first requests.
type coldSetup struct {
	p        *plan.Planner
	machines map[int]*arch.Machine
}

func newColdSetup(ctx context.Context) (*coldSetup, error) {
	s := &coldSetup{p: plan.New(), machines: make(map[int]*arch.Machine)}
	for _, c := range coldPartitions {
		s.machines[c] = arch.CHiC().SubsetCores(c)
	}
	for _, cores := range []int{32, 128, 512} {
		warm := arch.CHiC().SubsetCores(cores)
		for kind := 0; kind <= len(serveSolvers); kind++ {
			c := coldShape{kind: kind, stages: 32, chain: 4, n: 40000, steps: 24}
			if _, err := s.p.Plan(ctx, c.build(), warm); err != nil {
				return nil, fmt.Errorf("warm-up plan: %w", err)
			}
		}
	}
	return s, nil
}

// coldOp is one timed request.
type coldOp struct {
	shape coldShape
	tasks int
	dur   time.Duration
	info  plan.Info
	mp    *core.Mapping
	g     *graph.Graph
	// t0 and t1 bracket the Plan call on the tracer's clock.
	t0, t1 int64
}

// planOne generates the next request, plans it (the timed part) and
// checks the result. tr may be nil.
func (s *coldSetup) planOne(ctx context.Context, st *coldStream, tr *tracer, opts ...plan.Option) (coldOp, error) {
	c := st.next()
	g := c.build()
	m := s.machines[c.cores]
	op := coldOp{shape: c, tasks: g.Len(), g: g}
	opts = append(opts, plan.WithInfo(&op.info))
	op.t0 = tr.now()
	start := time.Now()
	mp, err := s.p.Plan(ctx, g, m, opts...)
	op.dur = time.Since(start)
	op.t1 = tr.now()
	if err != nil {
		return op, fmt.Errorf("plan of %s: %w", g.Name, err)
	}
	op.mp = mp
	if op.info.CacheHit || op.info.Coalesced {
		return op, fmt.Errorf("plan of %s was served from the cache; every request must be a new fingerprint", g.Name)
	}
	if err := mp.Validate(); err != nil {
		return op, fmt.Errorf("mapping of %s: %w", g.Name, err)
	}
	if c.extends >= 0 {
		ref, err := s.p.Plan(ctx, g, m, plan.WithoutCache(), plan.WithoutIncremental())
		if err != nil {
			return op, fmt.Errorf("reference re-plan of %s: %w", g.Name, err)
		}
		if math.Float64bits(ref.Schedule.Time) != math.Float64bits(mp.Schedule.Time) {
			return op, fmt.Errorf("extension %s: makespan %v, re-plan without incremental reuse %v",
				g.Name, mp.Schedule.Time, ref.Schedule.Time)
		}
	}
	return op, nil
}

// coldStats summarises a list of requests.
type coldStats struct {
	fresh, extend []float64 // ms
	tasks         int
	planning      time.Duration
}

func (cs *coldStats) add(op coldOp) {
	if op.shape.extends >= 0 {
		cs.extend = append(cs.extend, ms(op.dur))
	} else {
		cs.fresh = append(cs.fresh, ms(op.dur))
	}
	cs.tasks += op.tasks
	cs.planning += op.dur
}

func runPlanCold(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	setupS, s, err := timeSetup(func() (*coldSetup, error) { return newColdSetup(ctx) })
	o.SetupS = setupS
	if err != nil {
		return o, err
	}
	st := newColdStream(cfg.seed)

	measure := cfg.seconds
	if cfg.trace {
		measure = time.Duration(measuredShare * float64(cfg.seconds))
	}
	var base coldStats
	before := allocated()
	for start := time.Now(); time.Since(start) < measure; {
		op, err := s.planOne(ctx, st, nil)
		o.Attempted++
		if err != nil {
			o.Failed++
			return o, err
		}
		base.add(op)
	}
	o.AllocKB = float64(allocated()-before) / 1024 / float64(len(base.fresh)+len(base.extend))
	o.setOps(base.fresh)
	o.Rate = float64(base.tasks) / base.planning.Seconds()
	pt, vt := tail(base.fresh)
	o.add("plan.cold_p50_ms", "ms", median(base.fresh))
	o.add(fmt.Sprintf("plan.cold_p%g_ms", pt), "ms", vt)
	o.add("plan.extend_p50_ms", "ms", median(base.extend))
	o.add("plan.tasks_per_s", "1/s", o.Rate)
	o.add("plan.requests", "count", float64(len(base.fresh)+len(base.extend)))
	if !cfg.trace {
		return o, nil
	}
	return o, coldTraced(ctx, cfg, s, st, o, base)
}

// coldTraced plans the rest of the stream with the planner's trace on,
// imports its spans, and re-times contraction, layering and mapping on
// each request's inputs.
func coldTraced(ctx context.Context, cfg config, s *coldSetup, st *coldStream, o *outcome, base coldStats) error {
	rec := obs.New(0, obs.WithName("planner"), obs.WithCapacity(1<<14))
	tr := newTracer(rec)
	var (
		traced                        coldStats
		contract, layers, mapping     []time.Duration
		searched, reused, totalLayers int
		drops                         uint64
		rootSum                       time.Duration
	)
	hits0, misses0 := rec.Counter("cost.memo_hits").Value(), rec.Counter("cost.memo_misses").Value()
	half := time.Duration(measuredShare * float64(cfg.seconds))
	for start := time.Now(); time.Since(start) < cfg.seconds-half; {
		op, err := s.planOne(ctx, st, tr, plan.WithTrace(rec))
		o.Attempted++
		if err != nil {
			o.Failed++
			return err
		}
		// The root span is the timed Plan call; the reference re-plan of
		// an extension ran after it.
		t0, t1 := op.t0, op.t1
		traced.add(op)
		rootSum += op.dur
		root := tr.add(span{Name: "plan.Plan", Cat: "plan", Parent: -1, Start: t0, End: t1})

		// Import the planner's own spans of this request.
		cold := -1
		var searchStart, searchEnd int64
		for _, ev := range rec.Events() {
			switch {
			case ev.Kind == obs.KindSpan && strings.HasPrefix(ev.Name, "plan:") && ev.Start >= t0 && ev.End <= t1:
				cold = tr.add(span{Name: "plan.cold", Cat: "plan", Parent: root, Start: ev.Start, End: ev.End})
			case ev.Kind == obs.KindInstant && strings.HasPrefix(ev.Name, "layer "):
				searched++
			}
		}
		for _, ev := range rec.Events() {
			if ev.Kind == obs.KindSpan && strings.HasPrefix(ev.Name, "g-search") && ev.Start >= t0 && ev.End <= t1 {
				if ev.Name == "g-search" {
					searched++
				}
				if searchStart == 0 || ev.Start < searchStart {
					searchStart = ev.Start
				}
				if ev.End > searchEnd {
					searchEnd = ev.End
				}
				tr.add(span{Name: "core.gsearch", Cat: "plan", Parent: cold, Start: ev.Start, End: ev.End})
			}
		}
		drops += rec.Drops()
		rec.Reset()
		if cold < 0 {
			return fmt.Errorf("plan of %s recorded no cold-plan span", op.g.Name)
		}

		// Re-time the layers on the same inputs.
		a := time.Now()
		res := graph.ContractChains(op.g)
		b := time.Now()
		graph.Layers(res.Graph)
		c := time.Now()
		if _, err := core.MapCtx(ctx, op.mp.Schedule, op.mp.Machine, op.mp.Strategy); err != nil {
			return fmt.Errorf("re-timed mapping of %s: %w", op.g.Name, err)
		}
		d := time.Now()
		if searchEnd == 0 {
			// Every layer was reused: no search span; the pipeline's
			// remaining steps sit at the start of the cold plan.
			searchStart = tr.spans[cold].Start + int64(b.Sub(a)+c.Sub(b))
			searchEnd = searchStart
		}
		cs, ls, md := b.Sub(a), c.Sub(b), d.Sub(c)
		tr.retimed(cold, 0, searchStart-int64(cs+ls), []string{"graph.contract", "graph.layers"}, []time.Duration{cs, ls})
		tr.retimed(cold, 0, searchEnd, []string{"core.map"}, []time.Duration{md})
		contract = append(contract, cs)
		layers = append(layers, ls)
		mapping = append(mapping, md)
		reused += op.info.ReusedLayers
		totalLayers += len(op.mp.Schedule.Layers)
	}
	hits := rec.Counter("cost.memo_hits").Value() - hits0
	misses := rec.Counter("cost.memo_misses").Value() - misses0

	rep := tr.decompose(rootSum)
	rep.print()
	ops := float64(len(traced.fresh) + len(traced.extend))
	o.Layers = map[string]float64{
		"plan.self_us":            us(rep.Self["plan.Plan"]+rep.Self["plan.cold"]) / ops,
		"plan.reused_layer_ratio": float64(reused) / float64(totalLayers),
		"plan.extend_p50_ms":      median(base.extend),
		"graph.contract_us":       us(meanDur(contract)),
		"graph.layers_us":         us(meanDur(layers)),
		"core.schedule_us":        us(rep.Self["core.gsearch"]) / ops,
		"core.map_us":             us(meanDur(mapping)),
		"core.gsearch_layers":     float64(searched) / ops,
		"cost.memo_hit_ratio":     float64(hits) / float64(hits+misses),
		"obs.trace_overhead_pct":  100 * (median(traced.fresh)/median(base.fresh) - 1),
		"obs.drops":               float64(drops),
		"obs.self_coverage_pct":   100 * rep.Coverage,
		"error_rate":              float64(o.Failed) / float64(o.Attempted),
	}
	if f := cfg.chromeFile(); f != "" {
		if err := tr.writeChrome(f); err != nil {
			return err
		}
	}
	return checkCoverage(rep)
}
