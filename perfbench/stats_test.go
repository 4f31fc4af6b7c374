package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}, {0, 1, 99},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%g = %v with %d beyond, want %v with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

func TestTailTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p, v float64
	}{
		{10000, 99.9, 9990}, // 10 beyond p99.9
		{9999, 99, 9900},    // p99.9 has only 9 beyond
		{1000, 99, 990},
		{999, 95, 950},
		{200, 95, 190},
		{100, 90, 90},
		{44, 75, 33},
		{21, 50, 11},
		{5, 50, 3}, // nothing qualifies: the median
	} {
		p, v := tail(seq(c.n))
		if p != c.p || v != c.v {
			t.Errorf("tail of %d samples = p%g %v, want p%g %v", c.n, p, v, c.p, c.v)
		}
		if c.n >= 21 {
			if _, beyond := percentile(seq(c.n), p); beyond < 10 {
				t.Errorf("tail of %d samples: p%g has %d beyond, want >= 10", c.n, p, beyond)
			}
		}
	}
}

// steady returns n shots at rate with the given lateness profile and a
// fixed service time.
func steady(n int, rate float64, late func(i int) time.Duration) []shot {
	out := make([]shot, n)
	for i := range out {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		start := due + late(i)
		out[i] = shot{Due: due, Start: start, End: start + 2*time.Millisecond, Sent: true, OK: true}
	}
	return out
}

func TestBacklogDetection(t *testing.T) {
	const rate = 200.0
	flat := steady(150, rate, func(int) time.Duration { return 100 * time.Microsecond })
	if growingBacklog(flat, rate) {
		t.Error("on-time sender reported as a growing backlog")
	}
	// One long pause in the middle: lateness jumps, then drains.
	pause := steady(150, rate, func(i int) time.Duration {
		if i >= 70 && i < 75 {
			return 30 * time.Millisecond
		}
		return 0
	})
	if growingBacklog(pause, rate) {
		t.Error("a single drained pause reported as a growing backlog")
	}
	// Service slower than arrivals: lateness grows by 1 ms per request.
	growing := steady(150, rate, func(i int) time.Duration { return time.Duration(i) * time.Millisecond })
	if !growingBacklog(growing, rate) {
		t.Error("steadily growing lateness not reported")
	}
	abandoned := steady(150, rate, func(int) time.Duration { return 0 })
	abandoned[149].Sent = false
	if !growingBacklog(abandoned, rate) {
		t.Error("an abandoned rung not reported as a backlog")
	}
}

func TestLadderMaxPassingRate(t *testing.T) {
	ok := func(rate float64) rung {
		return rung{Rate: rate, Shots: steady(100, rate, func(int) time.Duration { return 0 })}
	}
	slow := func(rate float64) rung { // tail far above the limit, no backlog
		r := ok(rate)
		for i := range r.Shots {
			r.Shots[i].End += 80 * time.Millisecond
		}
		return r
	}
	backlog := func(rate float64) rung {
		return rung{Rate: rate, Shots: steady(100, rate, func(i int) time.Duration { return time.Duration(i) * time.Millisecond })}
	}
	failed := func(rate float64) rung {
		r := ok(rate)
		r.Shots[3].OK = false
		return r
	}
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"climbs until the limit", []rung{ok(100), ok(103), ok(106), slow(109)}, 106},
		{"one stray failure does not end the climb", []rung{ok(100), slow(103), ok(106), slow(109), slow(112)}, 106},
		{"two failures in a row end it", []rung{ok(100), backlog(103), backlog(106), ok(109)}, 100},
		{"a failed request fails the rung", []rung{ok(100), failed(103), failed(106)}, 100},
		{"steps down after a failed start", []rung{slow(120), ok(113), ok(116), slow(119), slow(122)}, 116},
		{"nothing passes", []rung{slow(100), backlog(94)}, 0},
	} {
		if got := maxPassingRate(c.rungs, 50); got != c.want {
			t.Errorf("%s: max rate %v, want %v", c.name, got, c.want)
		}
	}
	if !ladderDone([]rung{ok(100), slow(103), slow(106)}, 50) || ladderDone([]rung{ok(100), slow(103)}, 50) ||
		ladderDone([]rung{slow(100), slow(97)}, 50) {
		t.Error("ladderDone: want done exactly after two failures in a row following a pass")
	}
}

func TestOpenLoopLateness(t *testing.T) {
	// One sender, 1000 requests/s, each taking 3 ms: the sender falls
	// ~2 ms further behind per request, and every request's latency is
	// measured from its due time, so it includes the queueing.
	const n = 12
	shots := openLoop(1000, n, 1, time.Second, func(int) bool {
		time.Sleep(3 * time.Millisecond)
		return true
	}, nil)
	for i := 1; i < n; i++ {
		if shots[i].Late() <= shots[i-1].Late() {
			t.Fatalf("lateness did not grow: request %d %v, request %d %v", i-1, shots[i-1].Late(), i, shots[i].Late())
		}
	}
	if last := shots[n-1]; last.Late() < 15*time.Millisecond || last.Latency() < last.Late()+3*time.Millisecond {
		t.Errorf("last request late %v, latency %v; want >= 15ms late and latency >= lateness + service", last.Late(), last.Latency())
	}

	// An on-time loop: two senders, fast requests.
	var after atomic.Int64
	shots = openLoop(200, 20, 2, time.Second, func(int) bool { return true }, func(int, shot) { after.Add(1) })
	for i, s := range shots {
		if !s.Sent || !s.OK || s.Start < s.Due {
			t.Fatalf("request %d: %+v", i, s)
		}
	}
	if after.Load() != 20 {
		t.Errorf("after hook ran %d times, want 20", after.Load())
	}

	// A stall longer than the abandon limit stops the loop.
	shots = openLoop(1000, 50, 1, 5*time.Millisecond, func(int) bool {
		time.Sleep(10 * time.Millisecond)
		return true
	}, nil)
	sent := 0
	for _, s := range shots {
		if s.Sent {
			sent++
		}
	}
	if sent == 0 || sent == len(shots) {
		t.Errorf("stalled loop sent %d of %d requests, want it to give up part-way", sent, len(shots))
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 50, End: 90},
		{Name: "a.x", Parent: 1, Start: 15, End: 25},
		{Name: "a.x", Parent: 1, Start: 20, End: 30}, // overlaps its sibling
		{Name: "root", Parent: -1, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 30 + 10, "a": 15, "b": 40, "a.x": 20}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	// Overlapping siblings make the self times exceed the roots.
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 110+5 {
		t.Errorf("self times sum to %d, want the roots' 110 plus the 5 of overlap", sum)
	}

	// A well-formed tree adds up exactly; a child spilling out of its
	// parent is clipped for the parent but counted in full for itself.
	exact := selfTimes(spans[:4])
	if s := exact["root"] + exact["a"] + exact["b"] + exact["a.x"]; s != 100 {
		t.Errorf("well-formed tree sums to %d, want 100", s)
	}
	spill := selfTimes([]span{{Name: "p", Parent: -1, Start: 0, End: 10}, {Name: "c", Parent: 0, Start: 5, End: 20}})
	if spill["p"] != 5 || spill["c"] != 15 {
		t.Errorf("spilling child: self(p) = %d, self(c) = %d, want 5 and 15", spill["p"], spill["c"])
	}
}

func TestResponseMakespan(t *testing.T) {
	for body, want := range map[string]float64{
		`{"graph":"g","makespan":0.125,"cached":true}`:           0.125,
		`{"graph":"g","layer_groups":[1,2],"makespan":1.5e-3}`:   1.5e-3,
		`{"graph":"g","makespan":2}`:                             2,
		`{"graph":"g","placements":[{"task":"t","makespan":9}]}`: 9,
		`{"graph":"g","comp_time":1}`:                            math.NaN(),
		`{"graph":"g","makespan":"x"}`:                           math.NaN(),
	} {
		got := responseMakespan([]byte(body))
		if math.IsNaN(want) != math.IsNaN(got) || (!math.IsNaN(want) && got != want) {
			t.Errorf("responseMakespan(%s) = %v, want %v", body, got, want)
		}
	}
}
