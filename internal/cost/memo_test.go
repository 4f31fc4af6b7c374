package cost

import (
	"math"
	"sync"
	"testing"

	"mtask/internal/arch"
	"mtask/internal/graph"
)

// entries returns the number of memoized evaluations of every kind.
func (mt *memoTable) entries() int {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return len(mt.task) + len(mt.gather) + len(mt.bcast) + len(mt.redist)
}

// TestMemoBitIdentical checks that every memoized evaluation returns
// exactly the value of the memo-free model, on misses as well as hits:
// the second round adds no table entry, so every one of its evaluations
// is a hit.
func TestMemoBitIdentical(t *testing.T) {
	mach := arch.CHiC().Subset(4)
	plain := &Model{Machine: mach}
	memo := (&Model{Machine: mach}).WithMemo()
	if plain.memo != nil || memo.memo == nil {
		t.Fatal("memo table presence wrong")
	}

	tasks := []*graph.Task{
		{Work: 1e9},
		{Work: 2e9, CommBytes: 1 << 20, CommCount: 4},
		{Work: 5e8, CommBytes: 1 << 12, CommCount: 2, BcastBytes: 4096, BcastCount: 3},
		{Work: 3e9, MaxWidth: 5},
	}
	cores := mach.AllCores()
	groups := [][]arch.CoreID{cores[:8], cores[8:16], cores[16:]}

	var misses int
	for round := 0; round < 2; round++ { // second round hits the memo
		for _, task := range tasks {
			if got, want := memo.TaskTime(task, cores[:12]), plain.TaskTime(task, cores[:12]); got != want {
				t.Fatalf("TaskTime = %v, want %v", got, want)
			}
		}
		if got, want := memo.Allgather(groups, 4096), plain.Allgather(groups, 4096); got != want {
			t.Fatalf("Allgather = %v, want %v", got, want)
		}
		for i := range groups {
			if got, want := memo.AllgatherIn(i, groups, 4096), plain.AllgatherIn(i, groups, 4096); got != want {
				t.Fatalf("AllgatherIn(%d) = %v, want %v", i, got, want)
			}
		}
		if got, want := memo.Broadcast(cores[:10], 1<<16), plain.Broadcast(cores[:10], 1<<16); got != want {
			t.Fatalf("Broadcast = %v, want %v", got, want)
		}
		if got, want := memo.Redistribute(cores[:8], cores[8:16], 1<<20), plain.Redistribute(cores[:8], cores[8:16], 1<<20); got != want {
			t.Fatalf("Redistribute = %v, want %v", got, want)
		}
		if round == 0 {
			misses = memo.memo.entries()
		}
	}
	if misses == 0 {
		t.Fatal("first round memoized nothing")
	}
	if n := memo.memo.entries(); n != misses {
		t.Fatalf("second round added %d entries: expected only hits", n-misses)
	}
}

// TestMemoValueKeyed checks that two distinct task objects with equal
// cost-relevant fields share one memo entry — the solver-graph case where
// every time step repeats identical stage tasks.
func TestMemoValueKeyed(t *testing.T) {
	m := (&Model{Machine: arch.CHiC().Subset(2)}).WithMemo()
	cores := m.Machine.AllCores()
	a := &graph.Task{Work: 1e9, CommBytes: 1 << 16, CommCount: 2}
	b := &graph.Task{Name: "other-object", Work: 1e9, CommBytes: 1 << 16, CommCount: 2}
	va := m.TaskTime(a, cores)
	vb := m.TaskTime(b, append([]arch.CoreID(nil), cores...))
	if va != vb {
		t.Fatalf("equal tasks valued differently: %v vs %v", va, vb)
	}
	if n := len(m.memo.task); n != 1 {
		t.Fatalf("equal tasks on equal cores hold %d task-time entries, want 1 shared entry", n)
	}
}

// TestMemoConcurrent exercises the memo table from many goroutines; run
// under -race.
func TestMemoConcurrent(t *testing.T) {
	mach := arch.CHiC().Subset(4)
	m := (&Model{Machine: mach}).WithMemo()
	task := &graph.Task{Work: 1e9, CommBytes: 1 << 18, CommCount: 3, BcastBytes: 1 << 10, BcastCount: 1}
	cores := mach.AllCores()
	want := (&Model{Machine: mach}).TaskTime(task, cores[:7])

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 1; j <= 64; j++ {
				m.TaskTime(task, cores[:1+j%16])
			}
			if got := m.TaskTime(task, cores[:7]); got != want {
				t.Errorf("concurrent TaskTime = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestWithMemoDoesNotMutate checks that WithMemo leaves the receiver
// memo-free and that a memoized model returns itself.
func TestWithMemoDoesNotMutate(t *testing.T) {
	plain := &Model{Machine: arch.CHiC().Subset(2)}
	memo := plain.WithMemo()
	if plain.memo != nil {
		t.Fatal("WithMemo mutated the receiver")
	}
	if memo.WithMemo() != memo {
		t.Fatal("WithMemo on a memoized model should return itself")
	}
}

// FuzzMemoBitIdentical checks every memoized physical evaluation against a
// memo-free model on fuzzed tasks, core subsets and byte counts. One
// memoized model evaluates everything twice, first to miss and then to
// hit, and every result must equal the plain one bit for bit. The inputs
// come in near pairs that a too-coarse key would confuse: a sibling task
// differing in the field picked by vary, group a in rank order and
// rotated by rot, and the reversed redistribution. sel picks the core
// subsets of a 32-core CHiC partition (low half: group a, high half:
// group b).
func FuzzMemoBitIdentical(f *testing.F) {
	f.Add(1e9, 1<<20, 4, 0, 0, 0, uint8(0), uint64(0xffff_0000_ffff), uint8(0), 4096, 1<<20, false)
	f.Add(5e8, 1<<12, 2, 4096, 3, 5, uint8(5), uint64(0x0f0f_0f0f_f0f0_f0f0), uint8(3), 64, 1<<10, true)
	f.Add(3e9, 100, 1, 1<<16, 2, 0, uint8(3), uint64(0x5555_5555_aaaa_aaaa), uint8(17), 256, 0, false)
	f.Add(0.0, 0, 0, 0, 0, 0, uint8(1), uint64(1), uint8(0), 0, -1, false)
	mach := arch.CHiC().Subset(8)
	all := mach.AllCores()
	f.Fuzz(func(t *testing.T, work float64, commBytes, commCount, bcastBytes, bcastCount, maxWidth int,
		vary uint8, sel uint64, rot uint8, bytes, total int, hybrid bool) {
		pick := func(mask uint32) []arch.CoreID {
			var out []arch.CoreID
			for i, c := range all {
				if mask&(1<<i) != 0 {
					out = append(out, c)
				}
			}
			return out
		}
		a, b := pick(uint32(sel)), pick(uint32(sel>>32))
		ar := a
		if len(a) > 0 {
			r := int(rot) % len(a)
			ar = append(append([]arch.CoreID(nil), a[r:]...), a[:r]...)
		}
		task := &graph.Task{Work: work, CommBytes: commBytes, CommCount: commCount,
			BcastBytes: bcastBytes, BcastCount: bcastCount, MaxWidth: maxWidth}
		sib := *task
		switch vary % 6 {
		case 0:
			sib.Work *= 2
		case 1:
			sib.CommBytes++
		case 2:
			sib.CommCount++
		case 3:
			sib.BcastBytes++
		case 4:
			sib.BcastCount++
		case 5:
			sib.MaxWidth++
		}
		groups, rotated := [][]arch.CoreID{a, b}, [][]arch.CoreID{ar, b}

		evals := []struct {
			name string
			eval func(*Model) float64
		}{
			{"TaskTime(a)", func(m *Model) float64 { return m.TaskTime(task, a) }},
			{"TaskTime(rotated a)", func(m *Model) float64 { return m.TaskTime(task, ar) }},
			{"TaskTime(b)", func(m *Model) float64 { return m.TaskTime(task, b) }},
			{"TaskTime(sibling, a)", func(m *Model) float64 { return m.TaskTime(&sib, a) }},
			{"Allgather", func(m *Model) float64 { return m.Allgather(groups, bytes) }},
			{"Allgather(rotated)", func(m *Model) float64 { return m.Allgather(rotated, bytes) }},
			{"Allgather(bytes+1)", func(m *Model) float64 { return m.Allgather(groups, bytes+1) }},
			{"AllgatherIn(0)", func(m *Model) float64 { return m.AllgatherIn(0, groups, bytes) }},
			{"AllgatherIn(1)", func(m *Model) float64 { return m.AllgatherIn(1, groups, bytes) }},
			{"Broadcast(a)", func(m *Model) float64 { return m.Broadcast(a, bytes) }},
			{"Broadcast(rotated a)", func(m *Model) float64 { return m.Broadcast(ar, bytes) }},
			{"Broadcast(b)", func(m *Model) float64 { return m.Broadcast(b, bytes) }},
			{"Redistribute(a, b)", func(m *Model) float64 { return m.Redistribute(a, b, total) }},
			{"Redistribute(rotated a, b)", func(m *Model) float64 { return m.Redistribute(ar, b, total) }},
			{"Redistribute(b, a)", func(m *Model) float64 { return m.Redistribute(b, a, total) }},
		}
		plain := &Model{Machine: mach, Hybrid: hybrid}
		memo := (&Model{Machine: mach, Hybrid: hybrid}).WithMemo()
		for _, pass := range []string{"miss", "hit"} {
			for _, e := range evals {
				if got, want := e.eval(memo), e.eval(plain); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s (%s pass) = %v, want %v", e.name, pass, got, want)
				}
			}
		}
	})
}
