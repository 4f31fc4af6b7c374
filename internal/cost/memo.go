package cost

import (
	"sync"

	"mtask/internal/arch"
)

// This file implements the optional thread-safe memoization of the model's
// physical evaluations: the task times T(M, q, mp), the concurrent
// collective timings (Tcomm) and the re-distribution costs (TRe). These are
// what the cluster simulator and the Gantt renderer evaluate over and over
// for the same groups. The symbolic times Tsymb(M, p) of the group-count
// search are a handful of arithmetic operations and are never memoized.
//
// Keys are derived from the *values* a result depends on, never from task
// identity: two tasks with equal cost-relevant fields share one entry, so
// the solver graphs of the evaluation — whose layers repeat identical
// stage tasks across time steps — collapse to a handful of evaluations.
// All memoized functions are pure given a fixed Model configuration, so a
// hit is bit-identical to a recomputation. Configure the model (Hybrid,
// ThreadsPerRank, Machine) before enabling the memo; reconfiguring a
// memoized model is not supported.

// taskKey identifies a TaskTime evaluation by the task fields the result
// depends on plus an order-sensitive hash of the core list.
type taskKey struct {
	work                   float64
	commBytes, commCount   int
	bcastBytes, bcastCount int
	maxWidth               int
	cores                  uint64
}

// collKey identifies a collective evaluation over one or more core groups.
type collKey struct {
	groups uint64
	bytes  int
}

// redistKey identifies a Redistribute evaluation.
type redistKey struct {
	src, dst uint64
	bytes    int
}

// memoTable is the shared, mutex-guarded store behind a memoized Model.
type memoTable struct {
	mu     sync.RWMutex
	task   map[taskKey]float64
	gather map[collKey][]float64
	bcast  map[collKey]float64
	redist map[redistKey]float64
}

func newMemoTable() *memoTable {
	return &memoTable{
		task:   make(map[taskKey]float64),
		gather: make(map[collKey][]float64),
		bcast:  make(map[collKey]float64),
		redist: make(map[redistKey]float64),
	}
}

// WithMemo returns a model identical to m with memoization enabled. If m is
// already memoized m itself is returned; otherwise the returned model is a
// shallow copy sharing m's machine, so m itself is untouched and remains
// memo-free. The memoized model is safe for concurrent use.
func (m *Model) WithMemo() *Model {
	if m.memo != nil {
		return m
	}
	c := *m
	c.memo = newMemoTable()
	return &c
}

// --- FNV-1a hashing of core lists (order-sensitive: rank order matters
// for ring neighbourhoods) ---

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func hashCores(h uint64, cores []arch.CoreID) uint64 {
	h = fnvMix(h, uint64(len(cores)))
	for _, c := range cores {
		h = fnvMix(h, uint64(c.Node))
		h = fnvMix(h, uint64(c.Proc)<<1|uint64(c.Core)<<24)
	}
	return h
}

func hashGroups(groups [][]arch.CoreID) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(len(groups)))
	for _, g := range groups {
		h = hashCores(h, g)
	}
	return h
}

// --- typed lookups; each returns (value, true) on a hit ---

func (mt *memoTable) taskGet(k taskKey) (float64, bool) {
	mt.mu.RLock()
	v, ok := mt.task[k]
	mt.mu.RUnlock()
	return v, ok
}

func (mt *memoTable) taskPut(k taskKey, v float64) {
	mt.mu.Lock()
	mt.task[k] = v
	mt.mu.Unlock()
}

func (mt *memoTable) gatherGet(k collKey) ([]float64, bool) {
	mt.mu.RLock()
	v, ok := mt.gather[k]
	mt.mu.RUnlock()
	return v, ok
}

func (mt *memoTable) gatherPut(k collKey, v []float64) {
	mt.mu.Lock()
	mt.gather[k] = v
	mt.mu.Unlock()
}

func (mt *memoTable) bcastGet(k collKey) (float64, bool) {
	mt.mu.RLock()
	v, ok := mt.bcast[k]
	mt.mu.RUnlock()
	return v, ok
}

func (mt *memoTable) bcastPut(k collKey, v float64) {
	mt.mu.Lock()
	mt.bcast[k] = v
	mt.mu.Unlock()
}

func (mt *memoTable) redistGet(k redistKey) (float64, bool) {
	mt.mu.RLock()
	v, ok := mt.redist[k]
	mt.mu.RUnlock()
	return v, ok
}

func (mt *memoTable) redistPut(k redistKey, v float64) {
	mt.mu.Lock()
	mt.redist[k] = v
	mt.mu.Unlock()
}
