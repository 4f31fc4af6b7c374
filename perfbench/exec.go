package main

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"sync/atomic"
	"time"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/obs"
	"mtask/internal/ode"
	"mtask/internal/plan"
	"mtask/internal/runtime"
)

// exec-wavefront: one wavefront execution of a ~300k-task scaled solver
// graph per operation, on a fresh world of one symbolic core per host
// core. The task bodies cost well under a microsecond, so the
// persistent-worker dispatcher, the dependence counters and the
// Report's span recording are the whole cost. Planning happens once,
// while setting up.

// execTasks is the size of the executed graph. The seed varies it by up
// to 1% so different seeds run different graphs of the same shape.
const execTasks = 300_000

type execSetup struct {
	g     *graph.Graph
	sched *core.Schedule
	want  []float64
	cores int
}

func newExecSetup(ctx context.Context, seed int64) (*execSetup, error) {
	cores := stdruntime.NumCPU()
	g := ode.ScaledSolverGraph(execTasks + int(seed%3)*1000)
	p := plan.New(plan.WithCores(cores))
	mp, err := p.Plan(ctx, g, arch.CHiC().SubsetCores(4*((cores+3)/4)))
	if err != nil {
		return nil, fmt.Errorf("planning %s: %w", g.Name, err)
	}
	return &execSetup{g: g, sched: mp.Schedule, want: ode.ScaledReference(g), cores: cores}, nil
}

// execOnce runs one timed execution and checks it.
func (s *execSetup) execOnce(ctx context.Context, opts ...runtime.ExecOption) (*runtime.Report, time.Duration, error) {
	w, err := runtime.NewWorld(s.cores)
	if err != nil {
		return nil, 0, err
	}
	st := ode.NewScaledExecState(s.g)
	opts = append(opts, runtime.WithWavefront())
	start := time.Now()
	rep, err := runtime.ExecuteCtx(ctx, w, s.sched, st.Body, opts...)
	wall := time.Since(start)
	if err != nil {
		return rep, wall, fmt.Errorf("execution failed: %w", err)
	}
	if rep.Layers != len(s.sched.Layers) {
		return rep, wall, fmt.Errorf("execution completed %d of %d layers", rep.Layers, len(s.sched.Layers))
	}
	if err := ode.CompareScaledOutputs(s.want, st.Outputs()); err != nil {
		return rep, wall, fmt.Errorf("outputs differ from the sequential reference: %w", err)
	}
	return rep, wall, nil
}

func runExecWavefront(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	setupS, s, err := timeSetup(func() (*execSetup, error) { return newExecSetup(ctx, cfg.seed) })
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
		total time.Duration
	)
	before := allocated()
	for start := time.Now(); time.Since(start) < measure; {
		_, wall, err := s.execOnce(ctx)
		o.Attempted++
		if err != nil {
			o.Failed++
			return o, err
		}
		base = append(base, ms(wall))
		total += wall
	}
	tasks := float64(s.g.Len())
	o.AllocKB = float64(allocated()-before) / 1024 / float64(len(base))
	o.setOps(base)
	o.Rate = tasks * float64(len(base)) / total.Seconds()
	o.add("exec.ns_per_task", "ns", median(base)*1e6/tasks)
	o.add("exec.tasks", "count", tasks)
	if !cfg.trace {
		return o, nil
	}

	// Traced: the executor's recorder on, the goroutine count sampled,
	// and the single-threaded reference re-timed.
	rec := obs.New(s.cores, obs.WithName("executor"), obs.WithCapacity(1<<19))
	tr := newTracer(rec)
	var (
		traced, busy     []float64
		retries, resizes int
		drops            uint64
		rootSum          time.Duration
		peakExtra        int64
	)
	for start := time.Now(); time.Since(start) < cfg.seconds-measure; {
		rec.Reset()
		baseG := stdruntime.NumGoroutine()
		var peak atomic.Int64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(200 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if n := int64(stdruntime.NumGoroutine()); n > peak.Load() {
						peak.Store(n)
					}
				}
			}
		}()
		t0 := tr.now()
		rep, wall, err := s.execOnce(ctx, runtime.WithRecorder(rec))
		close(stop)
		<-done
		o.Attempted++
		if err != nil {
			o.Failed++
			return o, err
		}
		tr.add(span{Name: "exec.ExecuteCtx", Cat: "runtime", Parent: -1, Start: t0, End: t0 + int64(wall)})
		rootSum += wall
		traced = append(traced, ms(wall))
		_, _, frac := rep.Utilization()
		busy = append(busy, frac)
		retries += rep.Retries
		resizes += rep.Resizes
		drops += rec.Drops()
		// The sampler itself is one of the goroutines it counts.
		if extra := peak.Load() - int64(baseG) - 1; extra > peakExtra {
			peakExtra = extra
		}
	}
	var seq []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		ode.ScaledReference(s.g)
		seq = append(seq, ms(time.Since(start)))
	}
	rep := tr.decompose(rootSum)
	rep.print()
	o.Layers = map[string]float64{
		"runtime.exec_ms":          median(traced),
		"runtime.busy_frac":        mean(busy),
		"runtime.extra_goroutines": float64(peakExtra),
		"runtime.seq_ref_ms":       median(seq),
		"runtime.retries":          float64(retries) / float64(len(traced)),
		"runtime.resizes":          float64(resizes) / float64(len(traced)),
		"obs.trace_overhead_pct":   100 * (median(traced)/median(base) - 1),
		"obs.drops":                float64(drops),
		"obs.self_coverage_pct":    100 * rep.Coverage,
		"error_rate":               float64(o.Failed) / float64(o.Attempted),
	}
	if f := cfg.chromeFile(); f != "" {
		if err := tr.writeChrome(f, headOf(rec, 1<<14)); err != nil {
			return o, err
		}
	}
	return o, checkCoverage(rep)
}

// headOf copies the first n events of each of rec's timelines into a new
// recorder, to keep the Chrome trace of a 300k-task execution small.
func headOf(rec *obs.Recorder, n int) *obs.Recorder {
	out := obs.New(rec.Ranks(), obs.WithName(rec.Name()+" (first events)"), obs.WithCapacity(n))
	for r := -1; r < rec.Ranks(); r++ {
		evs := rec.RankEvents(r)
		if len(evs) > n {
			evs = evs[:n]
		}
		for _, ev := range evs {
			if ev.Kind == obs.KindSpan {
				out.Span(ev.Name, ev.Cat, r, int(ev.Layer), int(ev.Group), ev.Start, ev.End)
			}
		}
	}
	return out
}
