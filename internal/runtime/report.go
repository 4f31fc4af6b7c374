package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtask/internal/core"
	"mtask/internal/graph"
)

// TaskReport records the fault-tolerance history of one task. Report.Task
// returns the sum over every task sharing the requested name.
type TaskReport struct {
	Name     string
	Attempts int // body executions (first try + retries, across replans)
	Retries  int // attempts beyond the first
	Panics   int // panics recovered from the task's ranks
	Failures int // failed attempts (including the retried ones)
}

// Report makes the robustness of a fault-tolerant execution observable:
// per-task attempt counts, recovered panics, retries, degrade-and-replan
// escalations, lost cores and wall time. ExecuteCtx returns a Report even
// when the execution fails. A Report must not be read until the executor
// has returned.
//
// Per-task state lives in dense slices indexed by the source graph's
// TaskIDs. Attempt counts and spans are written only by the goroutine
// running that task's retry loop (passes and replans are ordered by
// joins), so a successful attempt takes no lock and stores no pointer.
// Task names are resolved only when the report is read.
type Report struct {
	// mu guards the exported totals and faults, which the failure,
	// retry, panic and barrier paths update.
	mu sync.Mutex

	// Retries and Panics total the per-task counts.
	Retries int
	Panics  int

	// Replans counts degrade-and-replan escalations; LostCores is the
	// total number of symbolic cores given up across them.
	Replans   int
	LostCores int

	// Resizes counts voluntary resizes applied at layer barriers
	// (WithResizer); GrownCores and ShrunkCores total the symbolic cores
	// gained and given up across them. Unlike Replans, resizes are not
	// failures: the machine-level job allocator uses them to grow and
	// shrink running jobs.
	Resizes     int
	GrownCores  int
	ShrunkCores int

	// Layers counts completed layer barriers (the recovery
	// checkpoints reached).
	Layers int

	// Wall is the wall-clock duration of the execution.
	Wall time.Duration

	// P is the symbolic core count of the initial schedule (the
	// denominator of Utilization).
	P int

	// src is the executed source graph: attempts, faults and spans are
	// indexed by its TaskIDs, and it resolves their names on read.
	src *graph.Graph

	// epoch is the wall-clock instant offsets are measured from. It is
	// fixed before any worker starts, so since reads it without the lock.
	epoch time.Time

	// attempts counts the attempts of each source task; faults holds
	// their fault counters, allocated at the first failure.
	attempts []int32
	faults   []faultHist

	// spans holds one slot per source task and pass (a pass ends at each
	// degrade-and-replan, after which completed tasks may run again); an
	// empty slot has zero cores. pass is the offset of the current pass's
	// slots. spans is nil under WithoutTimeline.
	spans []spanRecord
	pass  int

	// lean skips the span store (WithoutTimeline); successful attempts
	// add their core-time to busy instead.
	lean bool
	busy atomic.Int64
}

// faultHist counts the faults of one source task.
type faultHist struct {
	retries, panics, failures int32
}

// spanRecord is the pointer-free stored form of a TaskSpan (32 bytes).
type spanRecord struct {
	id, layer, group, cores int32
	start, end              time.Duration
}

// TaskSpan is the timeline entry of one successful task attempt: which
// task ran where, and when. Start and End are offsets from the beginning
// of the execution, so spans from one Report are directly comparable.
type TaskSpan struct {
	ID         graph.TaskID // source task id (names need not be unique)
	Name       string
	Layer      int
	Group      int
	Cores      int
	Start, End time.Duration
}

// Duration returns the span's elapsed time.
func (s TaskSpan) Duration() time.Duration { return s.End - s.Start }

// newReport returns the report of an execution of sched (nil for an
// execution that cannot start), with the epoch anchored now. Without
// lean it reserves one span slot per source task.
func newReport(sched *core.Schedule, lean bool) *Report {
	r := &Report{lean: lean, epoch: time.Now()}
	if sched != nil {
		n := sched.Source.Len()
		r.P, r.src, r.attempts = sched.P, sched.Source, make([]int32, n)
		if !lean {
			r.spans = make([]spanRecord, n)
		}
	}
	return r
}

// startAttempt records the start of an attempt of source task id and
// returns its 1-based number, which is stable across retries and replans
// (the failure injector's script mode keys on it).
func (r *Report) startAttempt(id graph.TaskID) int {
	r.attempts[id]++
	return int(r.attempts[id])
}

// faultsOf returns source task id's fault counters. Callers hold r.mu.
func (r *Report) faultsOf(id graph.TaskID) *faultHist {
	if r.faults == nil {
		r.faults = make([]faultHist, len(r.attempts))
	}
	return &r.faults[id]
}

// faultsAt returns a copy of source task id's fault counters.
func (r *Report) faultsAt(id graph.TaskID) faultHist {
	if r.faults == nil {
		return faultHist{}
	}
	return r.faults[id]
}

// failed records a failed attempt of source task id.
func (r *Report) failed(id graph.TaskID) {
	r.mu.Lock()
	r.faultsOf(id).failures++
	r.mu.Unlock()
}

// retried records that source task id is being retried.
func (r *Report) retried(id graph.TaskID) {
	r.mu.Lock()
	r.faultsOf(id).retries++
	r.Retries++
	r.mu.Unlock()
}

// addPanics records n recovered panics in source task id's ranks.
func (r *Report) addPanics(id graph.TaskID, n int) {
	if n == 0 {
		return
	}
	r.mu.Lock()
	r.faultsOf(id).panics += int32(n)
	r.Panics += n
	r.mu.Unlock()
}

// replanned records a degrade-and-replan escalation; lostTotal is the
// cumulative number of lost cores. The executor calls it between passes,
// so it also opens the next pass's span slots.
func (r *Report) replanned(lostTotal int) {
	r.mu.Lock()
	r.Replans++
	r.LostCores = lostTotal
	r.mu.Unlock()
	if r.spans != nil {
		r.pass = len(r.spans)
		r.spans = append(r.spans, make([]spanRecord, len(r.attempts))...)
	}
}

// resized records a voluntary resize applied at a layer barrier; delta is
// the signed change of the symbolic core count.
func (r *Report) resized(delta int) {
	r.mu.Lock()
	r.Resizes++
	if delta >= 0 {
		r.GrownCores += delta
	} else {
		r.ShrunkCores -= delta
	}
	r.mu.Unlock()
}

// layerDone records a completed layer barrier.
func (r *Report) layerDone() {
	r.mu.Lock()
	r.Layers++
	r.mu.Unlock()
}

// since returns the current offset from the timeline epoch.
func (r *Report) since() time.Duration { return time.Since(r.epoch) }

// addSpan records the timeline entry of a successful attempt of source
// task id (or, under WithoutTimeline, just its core-time).
func (r *Report) addSpan(id graph.TaskID, layer, group, cores int, start, end time.Duration) {
	if r.lean {
		r.busy.Add(int64(cores) * int64(end-start))
		return
	}
	r.spans[r.pass+int(id)] = spanRecord{
		id: int32(id), layer: int32(layer), group: int32(group), cores: int32(cores),
		start: start, end: end,
	}
}

// name resolves a source task id.
func (r *Report) name(id graph.TaskID) string { return r.src.Task(id).Name }

// Timeline returns the per-task spans sorted by start time (ties by
// name, then id). In layered mode the starts of a layer cluster behind
// the previous layer's join; in wavefront mode a task starts as soon as
// its dependences allow, which is where the idle-time win comes from.
func (r *Report) Timeline() []TaskSpan {
	spans := make([]TaskSpan, 0, len(r.spans))
	for _, s := range r.spans {
		if s.cores == 0 {
			continue
		}
		id := graph.TaskID(s.id)
		spans = append(spans, TaskSpan{ID: id, Name: r.name(id), Layer: int(s.layer), Group: int(s.group),
			Cores: int(s.cores), Start: s.start, End: s.end})
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})
	return spans
}

// busyTime is the core-time spent inside successful task attempts.
func (r *Report) busyTime() time.Duration {
	busy := time.Duration(r.busy.Load())
	for _, s := range r.spans {
		busy += time.Duration(s.cores) * (s.end - s.start)
	}
	return busy
}

// Utilization summarises the timeline: busy is the core-time spent inside
// successful task attempts (span duration × group cores), idle is the rest
// of the P×Wall core-time budget, and frac is busy's share of it. A lower
// idle share on the same program is the direct measure of what wavefront
// execution recovers from the layer barriers.
func (r *Report) Utilization() (busy, idle time.Duration, frac float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	busy = r.busyTime()
	total := time.Duration(r.P) * r.Wall
	if total > busy {
		idle = total - busy
	}
	if total > 0 {
		frac = float64(busy) / float64(total)
	}
	return busy, idle, frac
}

// Task returns the history of the named task, summed over every task
// that carries the name (zero counts if none ran). Task names need not
// be unique; unnamed tasks all answer to "".
func (r *Report) Task(name string) TaskReport {
	tr := TaskReport{Name: name}
	for id, n := range r.attempts {
		if n == 0 || r.name(graph.TaskID(id)) != name {
			continue
		}
		f := r.faultsAt(graph.TaskID(id))
		tr.Attempts += int(n)
		tr.Retries += int(f.retries)
		tr.Panics += int(f.panics)
		tr.Failures += int(f.failures)
	}
	return tr
}

// String renders the report: the totals line always, then one line per
// task that needed fault handling (attempts > 1 or recovered panics).
func (r *Report) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ran := 0
	var handled []graph.TaskID
	for id, n := range r.attempts {
		if n > 0 {
			ran++
		}
		if n > 1 || r.faultsAt(graph.TaskID(id)).panics > 0 {
			handled = append(handled, graph.TaskID(id))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "execution report: %d tasks, %d layers done, %d retries, %d recovered panics, %d replans (%d cores lost), wall %v\n",
		ran, r.Layers, r.Retries, r.Panics, r.Replans, r.LostCores, r.Wall.Round(time.Microsecond))
	if r.Resizes > 0 {
		fmt.Fprintf(&b, "  resizes: %d applied at layer barriers (+%d/-%d cores)\n",
			r.Resizes, r.GrownCores, r.ShrunkCores)
	}
	if busy := r.busyTime(); r.P > 0 && busy > 0 {
		total := time.Duration(r.P) * r.Wall
		idle := time.Duration(0)
		if total > busy {
			idle = total - busy
		}
		// A zero-duration report (empty schedule, or Wall not yet set)
		// has no wall time to divide by: utilization is n/a, not NaN.
		util := "n/a"
		if total > 0 {
			util = fmt.Sprintf("%.1f%% utilized", 100*float64(busy)/float64(total))
		}
		fmt.Fprintf(&b, "  core-time: busy %v, idle %v of %v (%s)\n",
			busy.Round(time.Microsecond), idle.Round(time.Microsecond), total.Round(time.Microsecond), util)
	}
	sort.Slice(handled, func(i, j int) bool {
		if a, b := r.name(handled[i]), r.name(handled[j]); a != b {
			return a < b
		}
		return handled[i] < handled[j]
	})
	for _, id := range handled {
		f := r.faultsAt(id)
		fmt.Fprintf(&b, "  %-24s id=%-6d attempts=%d retries=%d panics=%d failures=%d\n",
			r.name(id), id, r.attempts[id], f.retries, f.panics, f.failures)
	}
	return b.String()
}
