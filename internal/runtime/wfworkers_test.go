package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtask/internal/core"
	"mtask/internal/fault"
	"mtask/internal/graph"
)

// gridSchedule hand-builds a schedule of `layers` layers, each with
// p/gsize independent groups of gsize ranks running one task — a dense
// regular DAG (each chain's task depends on its predecessor) big enough
// to measure per-task dispatch cost without paying a scheduler pass. It
// satisfies every invariant of core.Schedule.Validate and
// core.PrecedenceOf.
func gridSchedule(p, layers, gsize int) *core.Schedule {
	if p%gsize != 0 {
		panic("gridSchedule: p must be a multiple of gsize")
	}
	ng := p / gsize
	g := graph.New("grid")
	sched := &core.Schedule{P: p}
	prev := make([]graph.TaskID, ng)
	for li := 0; li < layers; li++ {
		ls := &core.LayerSchedule{Groups: make([][]graph.TaskID, ng), Sizes: make([]int, ng)}
		for c := 0; c < ng; c++ {
			id := g.AddBasic("g"+strconv.Itoa(c)+"."+strconv.Itoa(li), 1)
			if li > 0 {
				g.MustEdge(prev[c], id, 8)
			}
			prev[c] = id
			ls.Layer = append(ls.Layer, id)
			ls.Groups[c] = []graph.TaskID{id}
			ls.Sizes[c] = gsize
		}
		sched.Layers = append(sched.Layers, ls)
	}
	sched.Source = g
	sched.Graph = g
	return sched
}

func TestPropertyWorkersMatchChannelDispatcher(t *testing.T) {
	// The differential property of the persistent-worker dispatcher: on
	// the same schedule it must produce bitwise identical results, the
	// same completed-layer count and the same number of successful spans
	// as the channel reference dispatcher, for random DAGs and varying
	// core counts.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		g := randomExecDAG(rng)
		P := []int{4, 6, 8}[rng.Intn(3)]
		sched := randomExecSchedule(t, g, P)
		ref, rrep := runRecorded(t, sched, P, WithWavefront(), WithChannelDispatcher())
		got, wrep := runRecorded(t, sched, P, WithWavefront())
		compareBitwise(t, ref, got)
		if wrep.Layers != rrep.Layers || wrep.Layers != len(sched.Layers) {
			t.Fatalf("trial %d: layers done = %d (workers) / %d (channel), want %d",
				trial, wrep.Layers, rrep.Layers, len(sched.Layers))
		}
		if nw, nr := len(wrep.Timeline()), len(rrep.Timeline()); nw != nr {
			t.Fatalf("trial %d: %d worker spans, %d channel spans", trial, nw, nr)
		}
	}
}

func TestPropertyWorkersFaultsMatchChannel(t *testing.T) {
	// Equivalence under injected errors, panics and delays with retries:
	// the injector is deterministic per (task, attempt, rank), so both
	// dispatchers see the same fault sequence per task and must converge
	// to the same bits with the same retry and panic totals.
	rng := rand.New(rand.NewSource(17))
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 20
	pol.BaseBackoff = 50 * time.Microsecond
	for trial := 0; trial < 6; trial++ {
		g := randomExecDAG(rng)
		sched := randomExecSchedule(t, g, 8)
		inj := &fault.Injector{Seed: int64(trial + 1), PError: 0.08, PPanic: 0.04, PDelay: 0.05, Delay: 100 * time.Microsecond}
		ref, rrep := runRecorded(t, sched, 8, WithPolicy(pol), WithInjector(inj), WithWavefront(), WithChannelDispatcher())
		got, wrep := runRecorded(t, sched, 8, WithPolicy(pol), WithInjector(inj), WithWavefront())
		compareBitwise(t, ref, got)
		if wrep.Layers != rrep.Layers {
			t.Fatalf("trial %d: layers done = %d (workers) / %d (channel)", trial, wrep.Layers, rrep.Layers)
		}
		if wrep.Retries != rrep.Retries || wrep.Panics != rrep.Panics {
			t.Fatalf("trial %d: retries/panics = %d/%d (workers), %d/%d (channel)",
				trial, wrep.Retries, wrep.Panics, rrep.Retries, rrep.Panics)
		}
	}
}

func TestPropertyWorkersCoreLossCheckpointMatchesChannel(t *testing.T) {
	// A scripted mid-run core loss is fully deterministic, so the two
	// dispatchers must agree on the degrade-and-replan bookkeeping too:
	// same replan count, same lost cores, same completed-layer
	// checkpoints, and bitwise identical outputs after the resume.
	g, sched := diamondSchedule(t, 8)
	pol := fault.DefaultPolicy()
	pol.BaseBackoff = 50 * time.Microsecond
	pol.DegradeAndReplan = true

	run := func(opts ...ExecOption) (map[string]float64, *Report) {
		inj := &fault.Injector{Script: []fault.Script{
			{Task: "b", Attempt: 1, Rank: 0, Kind: fault.CoreLoss},
		}}
		w, _ := NewWorld(8)
		var out sync.Map
		rep, err := ExecuteCtx(context.Background(), w, sched, recordingBody(&out),
			append([]ExecOption{WithPolicy(pol), WithInjector(inj), WithReplanner(diamondReplanner(t, g)), WithWavefront()}, opts...)...)
		if err != nil {
			t.Fatalf("degrade-and-replan failed: %v\n%s", err, rep)
		}
		m := make(map[string]float64)
		out.Range(func(k, v any) bool {
			m[k.(string)] = v.(float64)
			return true
		})
		return m, rep
	}

	ref, rrep := run(WithChannelDispatcher())
	got, wrep := run()
	compareBitwise(t, ref, got)
	if wrep.Replans != rrep.Replans || wrep.Replans != 1 {
		t.Fatalf("replans = %d (workers) / %d (channel), want 1\nworkers: %schannel: %s", wrep.Replans, rrep.Replans, wrep, rrep)
	}
	if wrep.LostCores != rrep.LostCores {
		t.Fatalf("lost cores = %d (workers) / %d (channel)\nworkers: %schannel: %s", wrep.LostCores, rrep.LostCores, wrep, rrep)
	}
	if wrep.Layers != rrep.Layers {
		t.Fatalf("layers done = %d (workers) / %d (channel)\nworkers: %schannel: %s", wrep.Layers, rrep.Layers, wrep, rrep)
	}
}

func TestPropertyWorkersSpawnModeMatchesChannel(t *testing.T) {
	// A policy with a per-attempt TaskTimeout routes leaders through the
	// spawned-attempt fallback (attempts must be abandonable). The
	// fallback must preserve the differential property under faults just
	// like the cooperative path.
	rng := rand.New(rand.NewSource(23))
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 20
	pol.BaseBackoff = 50 * time.Microsecond
	pol.TaskTimeout = 30 * time.Second // generous: selects the spawn path, never fires
	for trial := 0; trial < 4; trial++ {
		g := randomExecDAG(rng)
		sched := randomExecSchedule(t, g, 8)
		inj := &fault.Injector{Seed: int64(trial + 41), PError: 0.08, PPanic: 0.04}
		ref, _ := runRecorded(t, sched, 8, WithPolicy(pol), WithInjector(inj), WithWavefront(), WithChannelDispatcher())
		got, wrep := runRecorded(t, sched, 8, WithPolicy(pol), WithInjector(inj), WithWavefront())
		compareBitwise(t, ref, got)
		if wrep.Layers != len(sched.Layers) {
			t.Fatalf("trial %d: workers completed %d of %d layers", trial, wrep.Layers, len(sched.Layers))
		}
	}
}

func TestWorkersTaskTimeoutUnblocksBarrier(t *testing.T) {
	// The watchdog semantics of the spawn fallback, end to end: one rank
	// hangs past the per-attempt deadline while its peers wait at a group
	// barrier. The persistent-worker dispatcher must abort the attempt's
	// communicator (releasing the peers) and fail with DeadlineExceeded —
	// and the persistent workers themselves must not deadlock.
	sched := gridSchedule(4, 2, 4)
	w, _ := NewWorld(4)
	pol := fault.Policy{TaskTimeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := ExecuteCtx(context.Background(), w, sched, func(task *graph.Task) TaskFunc {
		hang := task.Name == "g0.1"
		return func(tc *TaskCtx) error {
			if hang && tc.Group.Rank() == 0 {
				select { // hang, but respect the attempt context
				case <-tc.Ctx.Done():
					return tc.Ctx.Err()
				case <-time.After(10 * time.Second):
				}
			}
			tc.Group.Barrier()
			return nil
		}
	}, WithPolicy(pol), WithWavefront())
	if err == nil {
		t.Fatal("timeout not reported")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap DeadlineExceeded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("barrier deadlocked for %v", elapsed)
	}
}

func TestWorkersCancellationObservedBetweenAttempts(t *testing.T) {
	// The documented divergence of the cooperative path: caller
	// cancellation is observed between attempts. A body that honors its
	// TaskCtx.Ctx unblocks immediately; the dispatcher must then stop
	// launching and return the cancellation, with all workers joined.
	sched := gridSchedule(2, 50, 1)
	w, _ := NewWorld(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	body := func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if ran.Add(1) == 4 {
				cancel()
			}
			select {
			case <-tc.Ctx.Done():
				return tc.Ctx.Err()
			default:
				return nil
			}
		}
	}
	rep, err := ExecuteCtx(ctx, w, sched, body, WithWavefront())
	if err == nil {
		t.Fatalf("cancellation not reported\n%s", rep)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if n := ran.Load(); n >= 100 {
		t.Fatalf("all %d tasks ran despite cancellation", n)
	}
}

func TestWorkersStalePublicationRace(t *testing.T) {
	// Regression test for the stale attempt-publication race: a leader's
	// seq counter is cumulative across every task it leads, so after rank
	// 0 leads a group excluding rank 2 (rank 0's seq advances while rank
	// 2's lastSeq[0] stays behind), rank 2 joins rank 0's next group with
	// seq != lastSeq already true. If the task id were published before
	// the attempt's fields and seq bump, rank 2 could observe the id,
	// pass the seq check against the stale value and run the previous
	// task's publication — a released pooled communicator, the wrong
	// body, and a spurious pending decrement. Alternating {[0,2),[2,3)}
	// and {[0,3)} layers re-arm that window every round; the barrier in
	// each body makes a stale run collide instead of passing silently,
	// and the run counter catches any double-executed rank.
	const rounds = 200
	g := graph.New("stale")
	sched := &core.Schedule{P: 3}
	var prev []graph.TaskID
	for li := 0; li < 2*rounds; li++ {
		var ls *core.LayerSchedule
		var ids []graph.TaskID
		if li%2 == 0 {
			a := g.AddBasic("a"+strconv.Itoa(li), 1)
			c := g.AddBasic("c"+strconv.Itoa(li), 1)
			ls = &core.LayerSchedule{
				Layer:  []graph.TaskID{a, c},
				Groups: [][]graph.TaskID{{a}, {c}},
				Sizes:  []int{2, 1},
			}
			ids = []graph.TaskID{a, c}
		} else {
			wt := g.AddBasic("w"+strconv.Itoa(li), 1)
			ls = &core.LayerSchedule{
				Layer:  []graph.TaskID{wt},
				Groups: [][]graph.TaskID{{wt}},
				Sizes:  []int{3},
			}
			ids = []graph.TaskID{wt}
		}
		for _, p := range prev {
			for _, id := range ids {
				g.MustEdge(p, id, 1)
			}
		}
		prev = ids
		sched.Layers = append(sched.Layers, ls)
	}
	sched.Source = g
	sched.Graph = g

	var runs atomic.Int64
	body := func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			runs.Add(1)
			tc.Group.Barrier()
			return nil
		}
	}
	w, _ := NewWorld(3)
	rep, err := ExecuteCtx(context.Background(), w, sched, body, WithWavefront(), WithoutTimeline())
	if err != nil {
		t.Fatalf("execution failed: %v\n%s", err, rep)
	}
	// Per round: the size-2 group runs 2 rank bodies, the singleton 1,
	// the size-3 group 3 — every rank of every group exactly once.
	if want := int64(rounds * 6); runs.Load() != want {
		t.Fatalf("body ran %d times, want %d (a stale publication double-runs a rank)", runs.Load(), want)
	}
}

func TestWavefrontDispatchAllocFree(t *testing.T) {
	// The headline perf gate: steady-state dispatch must not allocate per
	// task. The fixed setup cost of a pass (precedence metadata slabs,
	// worker slabs, P wake channels) is constant in the task count, so
	// amortized over a few thousand tasks the per-task share must be a
	// rounding error — a goroutine-per-task dispatcher costs several
	// allocations per task and fails this hard.
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race (instrumentation + sync.Pool drops)")
	}
	const tasks = 4 * 500 // p/gsize groups × layers
	sched := gridSchedule(8, 500, 2)
	w, _ := NewWorld(8)
	shared := func(tc *TaskCtx) error { return nil }
	body := func(task *graph.Task) TaskFunc { return shared }

	// The default report (spans and per-task histories kept) is held to
	// the same gate as the lean one: its per-task state lives in slabs
	// sized once per execution.
	for _, report := range []struct {
		name string
		opts []ExecOption
	}{
		{"lean report", []ExecOption{WithWavefront(), WithoutTimeline()}},
		{"default report", []ExecOption{WithWavefront()}},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ExecuteCtx(context.Background(), w, sched, body, report.opts...); err != nil {
				t.Fatal(err)
			}
		})
		perTask := allocs / tasks
		t.Logf("dispatch, %s: %.0f allocs per pass, %.4f per task (%d tasks)", report.name, allocs, perTask, tasks)
		if perTask >= 0.5 {
			t.Fatalf("dispatch with the %s allocates %.4f per task (%.0f per %d-task pass), want amortized-free",
				report.name, perTask, allocs, tasks)
		}
	}
}

func TestWavefrontPeakGoroutinesConstant(t *testing.T) {
	// The scaling gate: the persistent-worker dispatcher runs P workers
	// for the whole pass, so the peak goroutine count must be O(P) — not
	// O(in-flight tasks) like a goroutine-per-task dispatcher.
	const P = 8
	sched := gridSchedule(P, 200, 1)
	w, _ := NewWorld(P)
	var peak atomic.Int64
	body := func(task *graph.Task) TaskFunc {
		return func(tc *TaskCtx) error {
			n := int64(runtime.NumGoroutine())
			for {
				pk := peak.Load()
				if n <= pk || peak.CompareAndSwap(pk, n) {
					return nil
				}
			}
		}
	}
	baseline := runtime.NumGoroutine()
	if _, err := ExecuteCtx(context.Background(), w, sched, body, WithWavefront(), WithoutTimeline()); err != nil {
		t.Fatal(err)
	}
	extra := int(peak.Load()) - baseline
	t.Logf("peak goroutines: baseline %d, peak %d (+%d) for P=%d", baseline, peak.Load(), extra, P)
	if extra > P+4 {
		t.Fatalf("peak goroutines %d above baseline %d for P=%d: dispatch is not O(P)", extra, baseline, P)
	}
}

func TestWithoutTimelineLeanReport(t *testing.T) {
	// WithoutTimeline must drop the span store while keeping the totals,
	// the busy core-time accumulator and the exact history of every task
	// (scripted injection keys on attempt numbers, which must stay
	// correct).
	sched := ImbalancedWorkload(2, 3)
	body := ImbalancedBody(2*time.Millisecond, time.Millisecond)
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 3
	pol.BaseBackoff = 50 * time.Microsecond
	inj := &fault.Injector{Script: []fault.Script{
		{Task: "slow[1]", Attempt: 1, Rank: 0, Kind: fault.Error},
	}}
	modes := map[string][]ExecOption{
		"layered":  {WithoutTimeline()},
		"workers":  {WithoutTimeline(), WithWavefront()},
		"channel":  {WithoutTimeline(), WithWavefront(), WithChannelDispatcher()},
		"timeline": {WithWavefront()}, // control: spans retained by default
	}
	for mode, opts := range modes {
		w, _ := NewWorld(2)
		rep, err := ExecuteCtx(context.Background(), w, sched, body,
			append([]ExecOption{WithPolicy(pol), WithInjector(inj)}, opts...)...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode, err, rep)
		}
		if mode == "timeline" {
			if n := len(rep.Timeline()); n != 6 {
				t.Fatalf("timeline control retained %d spans, want 6", n)
			}
			continue
		}
		if n := len(rep.Timeline()); n != 0 {
			t.Fatalf("%s: lean report retained %d spans", mode, n)
		}
		busy, _, frac := rep.Utilization()
		if busy <= 0 || frac <= 0 {
			t.Fatalf("%s: lean report lost core-time: busy %v, frac %.3f\n%s", mode, busy, frac, rep)
		}
		if rep.Layers != 3 {
			t.Fatalf("%s: layers done = %d, want 3\n%s", mode, rep.Layers, rep)
		}
		// Only the fault-touched task is listed as needing fault handling.
		if n := strings.Count(rep.String(), "attempts="); n != 1 || !strings.Contains(rep.String(), "slow[1]") {
			t.Fatalf("%s: report lists %d handled tasks, want only slow[1]\n%s", mode, n, rep)
		}
		tr := rep.Task("slow[1]")
		if tr.Attempts != 2 || tr.Retries != 1 || tr.Failures != 1 {
			t.Fatalf("%s: slow[1] history = %+v, want attempts 2, retries 1, failures 1", mode, tr)
		}
		if got := rep.Task("fast[1]").Attempts; got != 1 {
			t.Fatalf("%s: clean task fast[1] reports %d attempts, want 1\n%s", mode, got, rep)
		}
	}

	// A task that never failed but runs again after a degrade-and-replan
	// counts that run as attempt 2, lean report or not: task a completes,
	// then its sibling b loses its core, and the replan resumes from the
	// start of their layer.
	g := graph.New("replan-clean")
	a, b := g.AddBasic("a", 1), g.AddBasic("b", 1)
	c := g.AddBasic("c", 1)
	g.MustEdge(a, c, 8)
	g.MustEdge(b, c, 8)
	two := &core.Schedule{P: 2, Source: g, Graph: g, Layers: []*core.LayerSchedule{
		{Layer: graph.Layer{a, b}, Groups: [][]graph.TaskID{{a}, {b}}, Sizes: []int{1, 1}},
		{Layer: graph.Layer{c}, Groups: [][]graph.TaskID{{c}}, Sizes: []int{2}},
	}}
	one := &core.Schedule{P: 1, Source: g, Graph: g, Layers: []*core.LayerSchedule{
		{Layer: graph.Layer{a, b}, Groups: [][]graph.TaskID{{a, b}}, Sizes: []int{1}},
		{Layer: graph.Layer{c}, Groups: [][]graph.TaskID{{c}}, Sizes: []int{1}},
	}}
	rpol := fault.DefaultPolicy()
	rpol.DegradeAndReplan = true
	replan := func(ctx context.Context, survivors int) (*core.Schedule, error) { return one, nil }
	for mode, opts := range modes {
		aDone := make(chan struct{})
		var aOnce sync.Once
		var bRuns atomic.Int32
		body := func(task *graph.Task) TaskFunc {
			return func(tc *TaskCtx) error {
				switch task.ID {
				case a:
					aOnce.Do(func() { close(aDone) })
				case b:
					if bRuns.Add(1) == 1 {
						<-aDone
						return fmt.Errorf("b: %w", fault.ErrCoreLost)
					}
				}
				return nil
			}
		}
		w, _ := NewWorld(2)
		rep, err := ExecuteCtx(context.Background(), w, two, body,
			append([]ExecOption{WithPolicy(rpol), WithReplanner(replan)}, opts...)...)
		if err != nil {
			t.Fatalf("%s replan: %v\n%s", mode, err, rep)
		}
		if rep.Replans != 1 {
			t.Fatalf("%s replan: %d replans, want 1\n%s", mode, rep.Replans, rep)
		}
		if tr := rep.Task("a"); tr.Attempts != 2 || tr.Failures != 0 {
			t.Fatalf("%s replan: never-failed task a history = %+v, want attempts 2, failures 0\n%s", mode, tr, rep)
		}
		if tr := rep.Task("b"); tr.Attempts != 2 || tr.Failures != 1 {
			t.Fatalf("%s replan: task b history = %+v, want attempts 2, failures 1\n%s", mode, tr, rep)
		}
	}
}
