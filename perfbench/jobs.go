package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mtask/internal/arch"
	"mtask/internal/dynsched"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// jobs-stream: the machine-level job allocator on an 8-node CHiC
// partition replays a seeded trace of two heavy 20-stage ladder jobs and
// ten light jobs. Task bodies sleep their work divided by their group's
// cores, so wall times measure scheduling decisions — admission sizing,
// backfill, grow and shrink at layer barriers — not compute. Each
// operation is one whole replay on a fresh allocator; the planner, and
// with it the schedule cache, is shared across replays as a long-running
// allocator would share it.

const (
	jobsNodes  = 8
	jobsLights = 10
	// jobsSerial is every task's serial floor.
	jobsSerial = 200 * time.Microsecond
	// jobsSlowdownFloor is the bounded-slowdown threshold τ:
	// slowdown = max(turnaround, τ) / max(solo, τ).
	jobsSlowdownFloor = 10 * time.Millisecond
)

// jobsLadder builds a stages-deep ladder: two parallel tasks per stage
// with all four edges between consecutive stages, so the schedule has
// exactly `stages` layers and as many resize points. work is in sleep
// nanoseconds per task, divided by the group's cores when it runs.
func jobsLadder(name string, stages int, work float64) *graph.Graph {
	g := graph.New(name)
	var prev [2]graph.TaskID
	for s := 0; s < stages; s++ {
		var cur [2]graph.TaskID
		for i := range cur {
			cur[i] = g.AddTask(&graph.Task{Name: fmt.Sprintf("%s.%d.%d", name, s, i), Kind: graph.KindBasic, Work: work})
		}
		if s > 0 {
			for _, p := range prev {
				for _, c := range cur {
					g.MustEdge(p, c, 8)
				}
			}
		}
		prev = cur
	}
	return g
}

// jobsBody sleeps each rank for the serial floor plus its share of the
// task's work, so twice the cores finish in about half the time.
func jobsBody(t *graph.Task) runtime.TaskFunc {
	return func(tc *runtime.TaskCtx) error {
		if t.Kind == graph.KindBasic {
			time.Sleep(jobsSerial + time.Duration(t.Work)/time.Duration(tc.Group.Size()))
		}
		return nil
	}
}

// jobsTrace builds the seeded trace: two heavy scalable jobs that want
// the whole machine, and light single-node jobs arriving in two bursts,
// one while the first heavy job runs alone and one while both share the
// machine. The seed jitters the light jobs' arrivals and sizes.
func jobsTrace(seed int64) []dynsched.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := []dynsched.Job{
		{Name: "H1", Graph: jobsLadder("H1", 20, 80e6), Arrival: 0, MinNodes: 2, MaxNodes: 8},
		{Name: "H2", Graph: jobsLadder("H2", 20, 80e6), Arrival: 60 * time.Millisecond, MinNodes: 2, MaxNodes: 8},
	}
	for i := 0; i < jobsLights; i++ {
		burst := 10 * time.Millisecond
		if i >= jobsLights/2 {
			burst = 80 * time.Millisecond
		}
		name := fmt.Sprintf("L%d", i+1)
		jobs = append(jobs, dynsched.Job{
			Name:     name,
			Graph:    jobsLadder(name, 2, (6+4*rng.Float64())*1e6),
			Arrival:  burst + time.Duration(rng.Intn(6))*time.Millisecond,
			MinNodes: 1, MaxNodes: 2,
		})
	}
	for i := range jobs {
		jobs[i].Body = jobsBody
	}
	return jobs
}

// jobsSetup is one set-up: the machine, a planner, the trace, and every
// job's solo time on the whole machine (the slowdown denominators).
type jobsSetup struct {
	m     *arch.Machine
	p     *plan.Planner
	jobs  []dynsched.Job
	solo  map[string]time.Duration
	tasks int
}

func newJobsSetup(ctx context.Context, seed int64) (*jobsSetup, error) {
	s := &jobsSetup{m: arch.CHiC().Subset(jobsNodes), p: plan.New(), jobs: jobsTrace(seed), solo: make(map[string]time.Duration)}
	for _, j := range s.jobs {
		s.tasks += j.Graph.Len()
		mp, err := s.p.PlanPartition(ctx, j.Graph, s.m, s.m.Nodes)
		if err != nil {
			return nil, fmt.Errorf("solo plan of %s: %w", j.Name, err)
		}
		w, err := runtime.NewWorld(mp.Schedule.P)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := runtime.ExecuteCtx(ctx, w, mp.Schedule, j.Body); err != nil {
			return nil, fmt.Errorf("solo run of %s: %w", j.Name, err)
		}
		s.solo[j.Name] = time.Since(start)
	}
	return s, nil
}

// replay is one replay's outcome.
type replay struct {
	makespan                  time.Duration
	utilization               float64
	meanSlow, maxSlow         float64
	wait                      time.Duration // mean queue wait
	grows, shrinks, backfills int
	resizes, retries          int
}

// replayOnce runs the trace on a fresh allocator and checks it. Traced
// replays attach the allocator's and every job's recorder.
func (s *jobsSetup) replayOnce(ctx context.Context, recs *jobsRecs) (replay, error) {
	var r replay
	a, err := dynsched.NewAllocator(s.m, s.p)
	if err != nil {
		return r, err
	}
	if recs != nil {
		recs.attach(a)
	}
	results, err := a.RunTrace(ctx, s.jobs)
	if err != nil {
		return r, err
	}
	var busy time.Duration
	for _, res := range results {
		if res.Err != nil {
			return r, fmt.Errorf("job %s failed: %w", res.Name, res.Err)
		}
		if res.Report == nil || res.Report.Layers == 0 {
			return r, fmt.Errorf("job %s reported no completed layer", res.Name)
		}
		if res.Done > r.makespan {
			r.makespan = res.Done
		}
		b, _, _ := res.Report.Utilization()
		busy += b
		sd := boundedSlowdown(res.Turnaround(), s.solo[res.Name])
		r.meanSlow += sd / float64(len(results))
		if sd > r.maxSlow {
			r.maxSlow = sd
		}
		r.wait += res.Wait() / time.Duration(len(results))
		r.grows += res.Grows
		r.shrinks += res.Shrinks
		if res.Backfilled {
			r.backfills++
		}
		r.resizes += res.Report.Resizes
		r.retries += res.Report.Retries
	}
	r.utilization = float64(busy) / float64(time.Duration(s.m.TotalCores())*r.makespan)
	if r.grows < 1 || r.shrinks < 1 {
		return r, fmt.Errorf("replay saw %d grows and %d shrinks, want at least one of each", r.grows, r.shrinks)
	}
	return r, nil
}

func boundedSlowdown(turnaround, solo time.Duration) float64 {
	if turnaround < jobsSlowdownFloor {
		turnaround = jobsSlowdownFloor
	}
	if solo < jobsSlowdownFloor {
		solo = jobsSlowdownFloor
	}
	return float64(turnaround) / float64(solo)
}

// jobsRecs holds one traced replay's recorders.
type jobsRecs struct {
	mu      sync.Mutex
	machine *obs.Recorder
	jobs    []*obs.Recorder
}

func (j *jobsRecs) attach(a *dynsched.Allocator) {
	j.machine = obs.New(0, obs.WithName("allocator"))
	j.jobs = nil
	a.Trace = j.machine
	a.JobTrace = func(name string, cores int) *obs.Recorder {
		rec := obs.New(cores, obs.WithName("job "+name), obs.WithCapacity(512))
		j.mu.Lock()
		j.jobs = append(j.jobs, rec)
		j.mu.Unlock()
		return rec
	}
}

func (j *jobsRecs) all() []*obs.Recorder { return append([]*obs.Recorder{j.machine}, j.jobs...) }

func (j *jobsRecs) drops() uint64 {
	var d uint64
	for _, r := range j.all() {
		d += r.Drops()
	}
	return d
}

func runJobsStream(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	setupS, s, err := timeSetup(func() (*jobsSetup, error) { return newJobsSetup(ctx, cfg.seed) })
	o.SetupS = setupS
	if err != nil {
		return o, err
	}
	measure := cfg.seconds
	if cfg.trace {
		measure = time.Duration(measuredShare * float64(cfg.seconds))
	}
	var (
		base  []float64
		util  []float64
		total time.Duration
	)
	before := allocated()
	for start := time.Now(); time.Since(start) < measure; {
		r, err := s.replayOnce(ctx, nil)
		o.Attempted++
		if err != nil {
			o.Failed++
			return o, err
		}
		base = append(base, ms(r.makespan))
		util = append(util, r.utilization)
		total += r.makespan
	}
	o.AllocKB = float64(allocated()-before) / 1024 / float64(len(base))
	o.setOps(base)
	o.Rate = float64(s.tasks*len(base)) / total.Seconds()
	o.add("jobs.makespan_ms", "ms", median(base))
	o.add("jobs.utilization", "ratio", median(util))
	if !cfg.trace {
		return o, nil
	}

	recs := &jobsRecs{}
	tr := newTracer(nil)
	var (
		traced, tutil, wait, meanSlow, maxSlow []float64
		grows, shrinks, backfills              []float64
		resizes, retries                       int
		drops                                  uint64
		rootSum                                time.Duration
	)
	for start := time.Now(); time.Since(start) < cfg.seconds-measure; {
		t0 := tr.now()
		r, err := s.replayOnce(ctx, recs)
		t1 := tr.now()
		o.Attempted++
		if err != nil {
			o.Failed++
			return o, err
		}
		tr.add(span{Name: "jobs.RunTrace", Cat: "dynsched", Parent: -1, Start: t0, End: t1})
		rootSum += time.Duration(t1 - t0)
		traced = append(traced, ms(r.makespan))
		tutil = append(tutil, r.utilization)
		wait = append(wait, ms(r.wait))
		meanSlow = append(meanSlow, r.meanSlow)
		maxSlow = append(maxSlow, r.maxSlow)
		grows = append(grows, float64(r.grows))
		shrinks = append(shrinks, float64(r.shrinks))
		backfills = append(backfills, float64(r.backfills))
		resizes += r.resizes
		retries += r.retries
		drops += recs.drops()
	}
	rep := tr.decompose(rootSum)
	rep.print()
	o.Layers = map[string]float64{
		"dynsched.queue_wait_ms":         mean(wait),
		"dynsched.mean_bounded_slowdown": mean(meanSlow),
		"dynsched.max_bounded_slowdown":  mean(maxSlow),
		"dynsched.grows":                 mean(grows),
		"dynsched.shrinks":               mean(shrinks),
		"dynsched.backfills":             mean(backfills),
		"dynsched.utilization":           median(tutil),
		"runtime.resizes":                float64(resizes) / float64(len(traced)),
		"runtime.retries":                float64(retries) / float64(len(traced)),
		"obs.trace_overhead_pct":         100 * (median(traced)/median(base) - 1),
		"obs.drops":                      float64(drops),
		"obs.self_coverage_pct":          100 * rep.Coverage,
		"error_rate":                     float64(o.Failed) / float64(o.Attempted),
	}
	if f := cfg.chromeFile(); f != "" {
		if err := tr.writeChrome(f, recs.all()...); err != nil {
			return o, err
		}
	}
	return o, checkCoverage(rep)
}
