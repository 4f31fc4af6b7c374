package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mtask/internal/obs"
)

// tracer keeps the benchmark's own spans in memory. Its clock is the
// clock of an obs.Recorder of the system under test when one is given,
// so spans the program records (planner and g-search spans) and the
// benchmark's spans share one time axis. A nil *tracer records nothing,
// which is how the untraced runs call the same code.
type tracer struct {
	clock *obs.Recorder
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(clock *obs.Recorder) *tracer {
	return &tracer{clock: clock, epoch: time.Now()}
}

// now returns the tracer's clock in ns (0 for a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	if t.clock != nil {
		return t.clock.Now()
	}
	return int64(time.Since(t.epoch))
}

// add records a span and returns its index (-1 for a nil tracer), for
// use as the Parent of later spans.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// retimed records spans measured by calling a layer's public function
// again on the same inputs, outside the timed operation. They are laid
// end to end inside parent from `at` on, in pipeline order, and marked
// with category "retimed": their durations are measured, their
// positions are not.
func (t *tracer) retimed(parent, track int, at int64, names []string, durs []time.Duration) {
	if t == nil {
		return
	}
	for i, name := range names {
		end := at + int64(durs[i])
		t.add(span{Name: name, Cat: "retimed", Parent: parent, Track: track, Start: at, End: end})
		at = end
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfReport is the traced run's decomposition: self time per span name
// and the check that the self times account for the traced operations'
// own end-to-end time.
type selfReport struct {
	Self     map[string]time.Duration
	SelfSum  time.Duration
	RootSum  time.Duration
	Coverage float64 // SelfSum / RootSum
}

// decompose computes self times over the tracer's spans. rootSum is the
// workload's traced end-to-end time measured independently of the spans
// (the sum of its operations' latencies).
func (t *tracer) decompose(rootSum time.Duration) selfReport {
	rep := selfReport{Self: make(map[string]time.Duration), RootSum: rootSum}
	for name, d := range selfTimes(t.snapshot()) {
		rep.Self[name] = time.Duration(d)
		rep.SelfSum += time.Duration(d)
	}
	if rootSum > 0 {
		rep.Coverage = float64(rep.SelfSum) / float64(rootSum)
	}
	return rep
}

// print lists the self times, largest first.
func (r selfReport) print() {
	names := make([]string, 0, len(r.Self))
	for n := range r.Self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return r.Self[names[i]] > r.Self[names[j]] })
	fmt.Printf("self time by span (sum %.3f ms = %.2f%% of the traced end-to-end %.3f ms):\n",
		ms(r.SelfSum), 100*r.Coverage, ms(r.RootSum))
	for _, n := range names {
		fmt.Printf("  %-28s %12.3f ms  %6.2f%%\n", n, ms(r.Self[n]), 100*float64(r.Self[n])/float64(r.RootSum))
	}
}

// writeChrome writes one Chrome trace: the benchmark's spans as their
// own process (one thread per track) followed by the program's
// recorders.
func (t *tracer) writeChrome(path string, recs ...*obs.Recorder) error {
	spans := t.snapshot()
	tracks := 0
	for _, s := range spans {
		if s.Track+1 > tracks {
			tracks = s.Track + 1
		}
	}
	bench := obs.New(tracks, obs.WithName("perfbench"), obs.WithCapacity(len(spans)+1))
	for _, s := range spans {
		bench.Span(s.Name, s.Cat, s.Track, -1, -1, s.Start, s.End)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return obs.WriteChromeFile(path, append([]*obs.Recorder{bench}, recs...)...)
}
