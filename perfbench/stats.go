package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Statistics of the benchmark: order statistics under the ten-beyond
// rule, the open-loop load generator, the rate ladder's pass rule and
// self time over nested spans. Everything here is pure or drives only
// caller-supplied functions, so stats_test.go covers it without the
// system under test.

// tailPercentiles are the tail candidates, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of xs (which need
// not be sorted) and how many samples lie strictly beyond it. It returns
// NaN for an empty slice.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	i := nearestRank(len(s), p)
	return s[i], len(s) - 1 - i
}

// nearestRank is the 0-based index of the p-th percentile of n sorted
// samples: the smallest sample with at least p% of the samples at or
// below it. The epsilon keeps binary rounding of p (99.9 is not exact)
// from moving an exact rank up by one.
func nearestRank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, and its value. Below 21 samples no percentile
// qualifies and the median is returned as p = 50.
func tail(xs []float64) (p, v float64) {
	s := sortedCopy(xs)
	for _, p := range tailPercentiles {
		i := nearestRank(len(s), p)
		if len(s)-1-i >= 10 {
			return p, s[i]
		}
	}
	v, _ = percentile(xs, 50)
	return 50, v
}

// median returns the nearest-rank median of xs.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// shot is one open-loop request: when it was due, when a sender began
// it and when it ended, all as offsets from the start of the loop. Sent
// is false for requests the loop abandoned after a stall.
type shot struct {
	Due, Start, End time.Duration
	Sent, OK        bool
}

// Late is how far behind schedule the sender began the request.
func (s shot) Late() time.Duration { return s.Start - s.Due }

// Latency is the request's time from when it was due, so a stall also
// counts against every request that queued behind it.
func (s shot) Latency() time.Duration { return s.End - s.Due }

// spinWindow is how long before a request's due time a sender stops
// sleeping and yields instead.
const spinWindow = time.Millisecond

// openLoop sends n requests at a fixed rate (requests per second) from
// `senders` goroutines and returns one shot per request, in due order.
// Request i is due at i/rate; a free sender waits for the due time of
// the next request, so a slow system receives the same schedule and its
// backlog shows as lateness. Once a request starts more than abandon
// late, the loop stops sending and the rest are returned unsent. send
// reports whether the request succeeded; after, when non-nil, runs on
// the sender once the request's end is recorded, so work it does is not
// timed but does delay that sender's next request. openLoop returns
// after every sender has finished.
func openLoop(rate float64, n, senders int, abandon time.Duration, send func(i int) bool, after func(i int, s shot)) []shot {
	shots := make([]shot, n)
	interval := float64(time.Second) / rate
	for i := range shots {
		shots[i].Due = time.Duration(float64(i) * interval)
	}
	var (
		next    atomic.Int64
		stalled atomic.Bool
		wg      sync.WaitGroup
	)
	epoch := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stalled.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sh := &shots[i]
				// Sleep to just short of the due time, then yield until
				// it: a timer alone wakes the sender up to a millisecond
				// late, which would count against the system.
				if d := sh.Due - time.Since(epoch); d > spinWindow {
					time.Sleep(d - spinWindow)
				}
				for time.Since(epoch) < sh.Due {
					runtime.Gosched()
				}
				sh.Start = time.Since(epoch)
				if sh.Late() > abandon {
					stalled.Store(true)
					return
				}
				sh.OK = send(i)
				sh.End = time.Since(epoch)
				sh.Sent = true
				if after != nil {
					after(i, *sh)
				}
			}
		}()
	}
	wg.Wait()
	return shots
}

// rung is one step of the rate ladder: the rate it offered and the shots
// it sent.
type rung struct {
	Rate  float64
	Shots []shot
}

// latenciesMS returns the latencies in ms of the shots that were sent
// and succeeded.
func latenciesMS(shots []shot) []float64 {
	var out []float64
	for _, s := range shots {
		if s.Sent && s.OK {
			out = append(out, ms(s.Latency()))
		}
	}
	return out
}

// growingBacklog reports whether the sender fell steadily behind during
// the rung: the median lateness of the last third of the requests
// exceeds that of the first third by more than four inter-arrival
// intervals (at least 5 ms). Medians and the margin keep a single pause
// from counting as a backlog, while a rate 5% above what the system
// sustains falls behind by several times the margin within a rung. An
// unsent request means the loop gave up, which is a backlog too.
func growingBacklog(shots []shot, rate float64) bool {
	if len(shots) < 3 {
		return false
	}
	for _, s := range shots {
		if !s.Sent {
			return true
		}
	}
	third := len(shots) / 3
	late := func(part []shot) float64 {
		xs := make([]float64, len(part))
		for i, s := range part {
			xs[i] = ms(s.Late())
		}
		return median(xs)
	}
	slack := math.Max(4*1000/rate, 5)
	return late(shots[len(shots)-third:])-late(shots[:third]) > slack
}

// passes reports whether the rung met the latency limit: every request
// succeeded, the tail latency (under the ten-beyond rule) is within
// limitMS, and the backlog did not grow.
func (r rung) passes(limitMS float64) bool {
	for _, s := range r.Shots {
		if s.Sent && !s.OK {
			return false
		}
	}
	lat := latenciesMS(r.Shots)
	if len(lat) == 0 {
		return false
	}
	_, t := tail(lat)
	return t <= limitMS && !growingBacklog(r.Shots, r.Rate)
}

// maxPassingRate returns the highest passing rate of a ladder, taking
// the rungs in the order they ran: the climb ends at the second failure
// in a row after a pass, so one rung failed by a stray pause does not
// end it, while a rate the system cannot sustain fails every time. It
// returns 0 when no rung passed.
func maxPassingRate(rungs []rung, limitMS float64) float64 {
	best, fails := 0.0, 0
	for _, r := range rungs {
		if !r.passes(limitMS) {
			if best > 0 {
				if fails++; fails == 2 {
					break
				}
			}
			continue
		}
		fails = 0
		if r.Rate > best {
			best = r.Rate
		}
	}
	return best
}

// ladderDone reports whether a climb has ended: two failures in a row
// after a pass.
func ladderDone(rungs []rung, limitMS float64) bool {
	n := len(rungs)
	return n >= 2 && !rungs[n-1].passes(limitMS) && !rungs[n-2].passes(limitMS) &&
		maxPassingRate(rungs, limitMS) > 0
}

// span is one timed interval of the benchmark's own trace. Parent is the
// index of the enclosing span, -1 for the root of an operation. Track
// separates concurrent senders in the Chrome export.
type span struct {
	Name       string
	Cat        string
	Parent     int
	Track      int
	Start, End int64 // ns on the tracer's clock
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, per span name, the summed self time of the spans:
// each span's duration minus the part of its interval covered by its
// children (the union of the children's intervals, clipped to the
// parent). For a well-formed tree — children inside their parent, not
// overlapping each other — the self times add up exactly to the roots'
// durations; overlapping or overflowing children make the sum larger.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += s.dur() - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
