package mtask

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestExecuteCtxFacade exercises the public fault-tolerance surface end to
// end: plan a graph, inject a scripted core loss, recover through the
// standard ReplannerFor callback, and observe the recovery in the Report.
func TestExecuteCtxFacade(t *testing.T) {
	g := buildDemoGraph()
	machine := CHiC().Subset(2) // 8 cores
	planner := NewPlanner(WithCores(8))
	ctx := context.Background()
	mp, err := planner.Plan(ctx, g, machine)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}

	// Script entries match a task name and that task's own attempt
	// number, so a script on "work" would strike all four work tasks. Give
	// one of them its own name: the core loss then kills one group.
	for _, task := range g.Tasks() {
		if task.Name == "work" {
			task.Name = "work.victim"
			break
		}
	}
	inj := &FaultInjector{Script: []FaultScript{
		{Task: "work.victim", Attempt: 1, Rank: 0, Kind: FaultCoreLoss},
	}}
	pol := DefaultFaultPolicy()
	pol.BaseBackoff = 100 * time.Microsecond
	pol.DegradeAndReplan = true

	var mu sync.Mutex
	ran := map[string]int{}
	rep, err := ExecuteCtx(ctx, w, mp.Schedule, func(task *Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 0 {
				mu.Lock()
				ran[task.Name]++
				mu.Unlock()
			}
			tc.Group.Barrier()
			return nil
		}
	}, WithFaultPolicy(pol), WithFaultInjector(inj),
		WithReplanner(ReplannerFor(planner, g, machine)))
	if err != nil {
		t.Fatalf("degrade-and-replan through the facade failed: %v\n%s", err, rep)
	}
	if rep.Replans != 1 || rep.LostCores == 0 {
		t.Fatalf("recovery not recorded: %s", rep)
	}
	for _, name := range []string{"split", "work", "join"} {
		if ran[name] == 0 {
			t.Fatalf("task %q never completed: %v", name, ran)
		}
	}
}

// TestFaultSentinelsTopLevel pins the re-exported sentinels to their
// internal identities (errors.Is must work across the facade).
func TestFaultSentinelsTopLevel(t *testing.T) {
	w, _ := NewWorld(4)
	g := NewGraph("boom")
	g.AddTask(&Task{Name: "boom", Work: 1})
	mp, err := Plan(context.Background(), g, CHiC().Subset(1), WithCores(4))
	if err != nil {
		t.Fatal(err)
	}
	inj := &FaultInjector{Script: []FaultScript{
		{Task: "boom", Attempt: 1, Rank: 0, Kind: FaultCoreLoss},
	}}
	_, err = ExecuteCtx(context.Background(), w, mp.Schedule, func(task *Task) TaskFunc {
		return func(tc *TaskCtx) error { tc.Group.Barrier(); return nil }
	}, WithFaultInjector(inj))
	if !errors.Is(err, ErrCoreLost) || !errors.Is(err, ErrInjected) {
		t.Fatalf("sentinels lost across the facade: %v", err)
	}
}

// TestExecuteCtxFacadePanic verifies panic isolation through the facade.
func TestExecuteCtxFacadePanic(t *testing.T) {
	w, _ := NewWorld(4)
	g := NewGraph("p")
	g.AddTask(&Task{Name: "p", Work: 1})
	mp, err := Plan(context.Background(), g, CHiC().Subset(1), WithCores(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExecuteCtx(context.Background(), w, mp.Schedule, func(task *Task) TaskFunc {
		return func(tc *TaskCtx) error {
			if tc.Group.Rank() == 2 {
				panic("isolated")
			}
			tc.Group.Barrier()
			return nil
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if rep.Panics != 1 {
		t.Fatalf("panics = %d, want 1", rep.Panics)
	}
}
