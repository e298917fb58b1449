package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Samples collects one timing series. Values are kept in milliseconds so
// every quantile reads in the unit the report prints. It is safe for
// concurrent use.
type Samples struct {
	mu sync.Mutex
	v  []float64
}

// Add records one duration.
func (s *Samples) Add(d time.Duration) { s.AddMS(float64(d) / float64(time.Millisecond)) }

// AddMS records one value already in milliseconds.
func (s *Samples) AddMS(ms float64) {
	s.mu.Lock()
	s.v = append(s.v, ms)
	s.mu.Unlock()
}

// N is the sample count.
func (s *Samples) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1), or 0 with no samples.
func (s *Samples) Quantile(p float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(v)
	return quantile(v, p)
}

// quantile interpolates linearly between the two closest ranks of an
// ascending slice (the "linear" method: rank p·(n−1)).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// beyond is the number of samples strictly above the p-quantile's rank:
// a tail percentile is only reported when at least ten samples lie past
// it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(p*float64(n-1)))
}

// median of a slice (not modified).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// Tally counts operations attempted and failed. A failed correctness
// check is a failed operation, like an error returned by the program.
type Tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// Op records one attempted operation and whether it failed.
func (t *Tally) Op(failed bool) {
	t.attempted.Add(1)
	if failed {
		t.failed.Add(1)
	}
}

// Attempted is the number of operations recorded.
func (t *Tally) Attempted() int64 { return t.attempted.Load() }

// Failed is the number of failed operations recorded.
func (t *Tally) Failed() int64 { return t.failed.Load() }

// interval is a closed time range on the run's monotonic clock.
type interval struct{ start, end time.Duration }

// overlaps reports whether two intervals share any instant.
func (a interval) overlaps(b interval) bool { return a.start <= b.end && b.start <= a.end }

// countOverlapping counts the ops whose interval overlaps any of the
// stall windows (e.g. checkpoints). Both slices may be in any order.
func countOverlapping(ops, stalls []interval) int {
	n := 0
	for _, op := range ops {
		for _, st := range stalls {
			if op.overlaps(st) {
				n++
				break
			}
		}
	}
	return n
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
