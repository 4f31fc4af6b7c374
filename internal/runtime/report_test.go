package runtime

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mtask/internal/core"
	"mtask/internal/fault"
	"mtask/internal/graph"
)

// TestReportStringZeroWall is the regression test for the core-time
// line of a zero-duration report: with spans present but Wall == 0
// (empty schedule, or String called before Wall is stamped) the line
// must render "n/a" utilization instead of dividing by zero.
func TestReportStringZeroWall(t *testing.T) {
	g := graph.New("one")
	id := g.AddBasic("t", 1)
	r := newReport(&core.Schedule{P: 2, Source: g, Graph: g}, false)
	r.startAttempt(id)
	r.addSpan(id, 0, 0, 2, 0, time.Millisecond)

	out := r.String()
	if !strings.Contains(out, "core-time:") {
		t.Fatalf("zero-wall report omits the core-time line:\n%s", out)
	}
	if !strings.Contains(out, "n/a") {
		t.Fatalf("zero-wall report should render n/a utilization:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("zero-wall report rendered a non-finite utilization:\n%s", out)
	}

	// With a wall time the percentage returns.
	r.mu.Lock()
	r.Wall = 2 * time.Millisecond
	r.mu.Unlock()
	out = r.String()
	if !strings.Contains(out, "% utilized") {
		t.Fatalf("timed report lost the utilization percentage:\n%s", out)
	}
}

// unnamedGrid is gridSchedule with every task name cleared.
func unnamedGrid(p, layers, gsize int) *core.Schedule {
	s := gridSchedule(p, layers, gsize)
	for _, task := range s.Source.Tasks() {
		task.Name = ""
	}
	return s
}

// TestReportUnnamedTasksKeepOwnHistories: the report keeps one history
// per task, not per name. N unnamed tasks give N histories of one
// attempt each, none of which needed fault handling; Task("") sums them.
func TestReportUnnamedTasksKeepOwnHistories(t *testing.T) {
	const p, layers = 4, 50
	n := p * layers
	for mode, opts := range map[string][]ExecOption{
		"layered": nil,
		"workers": {WithWavefront()},
		"channel": {WithWavefront(), WithChannelDispatcher()},
		"lean":    {WithWavefront(), WithoutTimeline()},
	} {
		sched := unnamedGrid(p, layers, 1)
		w, _ := NewWorld(p)
		body := func(*graph.Task) TaskFunc { return func(*TaskCtx) error { return nil } }
		rep, err := ExecuteCtx(context.Background(), w, sched, body, opts...)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		out := rep.String()
		if !strings.Contains(out, fmt.Sprintf("execution report: %d tasks,", n)) {
			t.Fatalf("%s: report does not count %d tasks:\n%s", mode, n, out)
		}
		if strings.Contains(out, "attempts=") {
			t.Fatalf("%s: report lists clean tasks as fault-handled:\n%s", mode, out)
		}
		if tr := rep.Task(""); tr.Attempts != n || tr.Retries != 0 || tr.Failures != 0 {
			t.Fatalf("%s: Task(\"\") = %+v, want %d attempts and no retries or failures", mode, tr, n)
		}
		if mode != "lean" {
			spans := rep.Timeline()
			if len(spans) != n {
				t.Fatalf("%s: %d spans, want %d", mode, len(spans), n)
			}
			seen := make(map[graph.TaskID]bool, n)
			for _, s := range spans {
				seen[s.ID] = true
			}
			if len(seen) != n {
				t.Fatalf("%s: spans cover %d distinct tasks, want %d", mode, len(seen), n)
			}
		}
	}
}

// TestReportAttemptsCountedPerTask: attempt numbers are per task, so a
// script entry keyed on an unnamed task's first attempt strikes every
// unnamed task once — not just whichever task happened to start first.
func TestReportAttemptsCountedPerTask(t *testing.T) {
	const p, layers = 4, 20
	n := p * layers
	pol := fault.DefaultPolicy()
	pol.MaxRetries = 1
	pol.BaseBackoff = time.Microsecond
	inj := &fault.Injector{Script: []fault.Script{{Task: "", Attempt: 1, Rank: 0, Kind: fault.Error}}}
	for mode, opts := range map[string][]ExecOption{
		"layered": nil,
		"workers": {WithWavefront()},
		"channel": {WithWavefront(), WithChannelDispatcher()},
	} {
		sched := unnamedGrid(p, layers, 1)
		w, _ := NewWorld(p)
		body := func(*graph.Task) TaskFunc { return func(*TaskCtx) error { return nil } }
		rep, err := ExecuteCtx(context.Background(), w, sched, body,
			append([]ExecOption{WithPolicy(pol), WithInjector(inj)}, opts...)...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode, err, rep)
		}
		if rep.Retries != n {
			t.Fatalf("%s: %d retries, want one per task (%d)", mode, rep.Retries, n)
		}
		if tr := rep.Task(""); tr.Attempts != 2*n || tr.Failures != n || tr.Retries != n {
			t.Fatalf("%s: Task(\"\") = %+v, want %d attempts, %d failures, %d retries", mode, tr, 2*n, n, n)
		}
		if got := strings.Count(rep.String(), "attempts=2 retries=1"); got != n {
			t.Fatalf("%s: report lists %d retried tasks, want %d:\n%s", mode, got, n, rep)
		}
	}
}
