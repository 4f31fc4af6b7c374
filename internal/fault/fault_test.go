package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestInjectorNilAndZero(t *testing.T) {
	var nilIn *Injector
	if f := nilIn.Decide("t", 0, 1, 0); f != nil {
		t.Fatalf("nil injector produced %v", f)
	}
	var zero Injector
	for a := 1; a <= 5; a++ {
		for r := 0; r < 4; r++ {
			if f := zero.Decide("t", 0, a, r); f != nil {
				t.Fatalf("zero injector produced %v", f)
			}
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	in1 := &Injector{Seed: 42, PError: 0.2, PPanic: 0.1, PDelay: 0.15, PCoreLoss: 0.05}
	in2 := &Injector{Seed: 42, PError: 0.2, PPanic: 0.1, PDelay: 0.15, PCoreLoss: 0.05}
	diff := 0
	other := &Injector{Seed: 43, PError: 0.2, PPanic: 0.1, PDelay: 0.15, PCoreLoss: 0.05}
	for a := 1; a <= 20; a++ {
		for r := 0; r < 8; r++ {
			task := fmt.Sprintf("task%d", a%3)
			f1, f2 := in1.Decide(task, a%3, a, r), in2.Decide(task, a%3, a, r)
			switch {
			case f1 == nil && f2 == nil:
			case f1 == nil || f2 == nil || f1.Kind != f2.Kind:
				t.Fatalf("same seed diverged at (%s,%d,%d): %v vs %v", task, a, r, f1, f2)
			}
			if f3 := other.Decide(task, a%3, a, r); (f1 == nil) != (f3 == nil) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

func TestInjectorRates(t *testing.T) {
	in := &Injector{Seed: 7, PError: 0.3}
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if f := in.Decide(fmt.Sprintf("t%d", i), i, 1, 0); f != nil {
			if f.Kind != Error {
				t.Fatalf("unexpected kind %v", f.Kind)
			}
			if !errors.Is(f.Err, ErrInjected) {
				t.Fatalf("injected error does not wrap ErrInjected: %v", f.Err)
			}
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("error rate %.3f, want ~0.30", rate)
	}
}

func TestInjectorDrawsPerTaskID(t *testing.T) {
	// Tasks with no name (or a shared one) must draw independently: the
	// task id is part of the hash, so one unnamed task's fault does not
	// repeat on every other unnamed task.
	in := &Injector{Seed: 5, PError: 0.5}
	hits := 0
	const n = 200
	for id := 0; id < n; id++ {
		if in.Decide("", id, 1, 0) != nil {
			hits++
		}
	}
	if hits == 0 || hits == n {
		t.Fatalf("%d of %d unnamed tasks drew a fault: the draw ignores the task id", hits, n)
	}
}

func TestInjectorScript(t *testing.T) {
	in := &Injector{
		Seed: 1,
		Script: []Script{
			{Task: "stage[2](1)", Attempt: 1, Rank: -1, Kind: CoreLoss},
			{Task: "combine[0]", Attempt: 2, Rank: 1, Kind: Panic},
			{Task: "slow", Attempt: 1, Rank: 0, Kind: Delay, Delay: 3 * time.Millisecond},
		},
	}
	f := in.Decide("stage[2](1)", 7, 1, 3)
	if f == nil || f.Kind != CoreLoss {
		t.Fatalf("scripted core loss missed: %v", f)
	}
	if !errors.Is(f.Err, ErrCoreLost) || !errors.Is(f.Err, ErrInjected) {
		t.Fatalf("core loss error chain wrong: %v", f.Err)
	}
	if f := in.Decide("stage[2](1)", 7, 2, 3); f != nil {
		t.Fatalf("script fired on wrong attempt: %v", f)
	}
	if f := in.Decide("combine[0]", 9, 2, 0); f != nil {
		t.Fatalf("script fired on wrong rank: %v", f)
	}
	if f := in.Decide("combine[0]", 9, 2, 1); f == nil || f.Kind != Panic {
		t.Fatalf("scripted panic missed: %v", f)
	}
	if f := in.Decide("slow", 3, 1, 0); f == nil || f.Kind != Delay || f.Delay != 3*time.Millisecond {
		t.Fatalf("scripted delay wrong: %v", f)
	}
	// Default delay duration applies when the script leaves it zero.
	in2 := &Injector{Script: []Script{{Task: "d", Attempt: 1, Rank: -1, Kind: Delay}}}
	if f := in2.Decide("d", 0, 1, 0); f == nil || f.Delay != DefaultDelay {
		t.Fatalf("default delay wrong: %v", f)
	}
}

func TestPolicyBackoff(t *testing.T) {
	p := Policy{MaxRetries: 5, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	wants := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond}
	for i, want := range wants {
		if got := p.Backoff("t", i+1); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	if got := p.Backoff("t", 0); got != 0 {
		t.Fatalf("backoff(0) = %v", got)
	}
	var zero Policy
	if got := zero.Backoff("t", 3); got != 0 {
		t.Fatalf("zero policy backoff = %v", got)
	}
}

func TestPolicyBackoffJitterDeterministic(t *testing.T) {
	p := Policy{BaseBackoff: 10 * time.Millisecond, Jitter: 0.5, Seed: 9}
	a, b := p.Backoff("task", 1), p.Backoff("task", 1)
	if a != b {
		t.Fatalf("jitter not deterministic: %v vs %v", a, b)
	}
	if a < 5*time.Millisecond || a > 10*time.Millisecond {
		t.Fatalf("jittered backoff %v outside [5ms, 10ms]", a)
	}
	if p.Backoff("other", 1) == a && p.Backoff("task", 2) == a {
		t.Fatal("jitter ignores task and retry inputs")
	}
}

func TestPolicyRetryable(t *testing.T) {
	var p Policy
	if p.Retryable(nil) {
		t.Fatal("nil error retryable")
	}
	if !p.Retryable(errors.New("transient")) {
		t.Fatal("plain error not retryable")
	}
	if !p.Retryable(fmt.Errorf("wrap: %w", context.DeadlineExceeded)) {
		t.Fatal("attempt timeout should be retryable")
	}
	if p.Retryable(fmt.Errorf("wrap: %w", context.Canceled)) {
		t.Fatal("cancellation should not be retryable")
	}
	if p.Retryable(fmt.Errorf("wrap: %w", ErrCoreLost)) {
		t.Fatal("core loss should not be retryable")
	}
}

func TestDefaultPolicy(t *testing.T) {
	p := DefaultPolicy()
	if p.MaxRetries < 1 || p.TaskTimeout <= 0 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	for r := 1; r <= p.MaxRetries; r++ {
		if d := p.Backoff("t", r); d < 0 || (p.MaxBackoff > 0 && d > p.MaxBackoff) {
			t.Fatalf("default backoff(%d) = %v out of range", r, d)
		}
	}
}
