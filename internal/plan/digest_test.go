package plan

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/core"
	"mtask/internal/graph"
	"mtask/internal/ode"
)

var updateDigest = flag.Bool("update", false, "rewrite the schedule digest golden file")

// digestGraphs are the graph shapes of the cold-planning stream at
// reduced size: unrolled graphs with and without chains to contract, and
// every solver builder.
func digestGraphs() []*graph.Graph {
	return []*graph.Graph{
		ode.BuildUnrolledGraph(8, 1, 12, 20000, 600),
		ode.BuildUnrolledGraph(37, 4, 6, 50000, 600),
		ode.BuildUnrolledGraph(64, 8, 3, 3000, 600),
		ode.BuildEPOLGraph(30000, 600, 8, 4),
		ode.BuildIRKGraph(20000, 600, 4, 2, 3),
		ode.BuildDIIRKGraph(2000, 600, 4, 2, 3),
		ode.BuildPABGraph(40000, 600, 8, 0, 4),
		ode.BuildPABGraph(80000, 600, 8, 2, 4),
	}
}

// scheduleDigest is the SHA-256 of every planning decision of a mapping:
// per layer the Float64bits of the layer time, the group sizes, the
// group task lists and the physical cores of every group.
func scheduleDigest(mp *core.Mapping) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(mp.Schedule.Layers)))
	for li, ls := range mp.Schedule.Layers {
		put(math.Float64bits(ls.Time))
		put(uint64(len(ls.Groups)))
		for gi, tasks := range ls.Groups {
			put(uint64(ls.Sizes[gi]))
			put(uint64(len(tasks)))
			for _, id := range tasks {
				put(uint64(id))
			}
			cores := mp.Cores[li][gi]
			put(uint64(len(cores)))
			for _, c := range cores {
				put(uint64(c.Node))
				put(uint64(c.Proc))
				put(uint64(c.Core))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestScheduleDigestGolden pins the planner's output bit for bit: cold
// plans of the cold-planning graph shapes on CHiC partitions (including
// non-powers of two), with consecutive and scattered mappings, sequential
// and parallel group-count search. Each line records the makespan's
// Float64bits, the layer count and a digest of every layer's time bits,
// sizes, groups and cores. Regenerate with -update only for a change
// meant to alter schedules.
func TestScheduleDigestGolden(t *testing.T) {
	var buf bytes.Buffer
	ctx := context.Background()
	p := New()
	for _, cores := range []int{16, 64, 100, 256, 1000, 1024} {
		m := arch.CHiC().SubsetCores(cores)
		for _, g := range digestGraphs() {
			for _, strat := range []core.Strategy{core.Consecutive{}, core.Scattered{}} {
				var first string
				for _, par := range []int{1, 2} {
					mp, err := p.Plan(ctx, g, m, WithStrategy(strat), WithParallelism(par),
						WithoutCache(), WithoutIncremental())
					if err != nil {
						t.Fatalf("%s on %d cores, %s, parallelism %d: %v", g.Name, cores, strat.Name(), par, err)
					}
					line := fmt.Sprintf("%s cores=%d %s makespan=%016x layers=%d digest=%s",
						g.Name, cores, strat.Name(),
						math.Float64bits(mp.Schedule.Time), len(mp.Schedule.Layers), scheduleDigest(mp))
					if par == 1 {
						first = line
						fmt.Fprintln(&buf, line)
					} else if line != first {
						t.Errorf("parallel search differs from sequential:\n seq %s\n par %s", first, line)
					}
				}
			}
		}
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "schedule_digest.golden")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d drifted from the golden file\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
