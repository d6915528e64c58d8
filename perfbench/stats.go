package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// failedNS is the latency recorded for a failed operation: a refused or
// broken request misses every latency limit, so it sorts above every real
// sample and any percentile that reaches it reads as "never completed".
const failedNS = math.MaxInt64

// minBeyond is how many samples must lie strictly above the highest
// reported percentile. A p99 needs 1,000 samples; with fewer, the tail
// metric reports the nearest rank that still leaves minBeyond above it, and
// the report names that effective percentile.
const minBeyond = 10

// series is one operation kind's latency record. Storage is preallocated at
// set-up so recording in the timed phase does not grow the heap; a run
// longer than the estimate still records every sample (append grows).
type series struct {
	mu     sync.Mutex
	ns     []int64
	failed int
}

func newSeries(capacity int) *series {
	return &series{ns: make([]int64, 0, capacity)}
}

// record adds one attempted operation. A non-nil err marks it failed: a
// 429 shed, a 5xx, a transport error and every other error alike.
func (s *series) record(d time.Duration, err error) {
	v := int64(d)
	if err != nil {
		v = failedNS
	}
	s.mu.Lock()
	s.ns = append(s.ns, v)
	if err != nil {
		s.failed++
	}
	s.mu.Unlock()
}

func (s *series) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ns)
}

// summary is a sorted snapshot of a series.
type summary struct {
	sorted []int64
	failed int
}

func (s *series) summary() summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return summary{sorted: slices.Sorted(slices.Values(s.ns)), failed: s.failed}
}

func (s summary) attempted() int { return len(s.sorted) }

// nearestRank is the 1-based nearest-rank index of quantile q in n samples:
// the smallest rank r with r/n >= q.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// reportRank is nearestRank capped so at least minBeyond samples lie above
// the reported one. ok is false when n is too small to report any
// percentile under that rule.
func reportRank(n int, q float64) (rank int, ok bool) {
	if n <= minBeyond {
		return 0, false
	}
	return min(nearestRank(n, q), n-minBeyond), true
}

// quantile returns the reported value (milliseconds) for quantile q, the
// effective quantile it stands for (rank/n), and the sample count. A failed
// operation reaching the reported rank reads as +Inf.
func (s summary) quantile(q float64) (ms, effective float64, n int, ok bool) {
	n = len(s.sorted)
	rank, ok := reportRank(n, q)
	if !ok {
		return 0, 0, n, false
	}
	v := s.sorted[rank-1]
	if v == failedNS {
		return math.Inf(1), float64(rank) / float64(n), n, true
	}
	return float64(v) / 1e6, float64(rank) / float64(n), n, true
}

// median is the nearest-rank median of plain values (set-up and recovery
// times repeated within one run); it needs no tail rule.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(v))
	return s[nearestRank(len(s), 0.5)-1]
}

// durMedian is the nearest-rank median of durations, in the unit given.
func durMedian(d []time.Duration, unit time.Duration) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(d))
	return float64(s[nearestRank(len(s), 0.5)-1]) / float64(unit)
}
