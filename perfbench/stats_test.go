package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	} {
		if got := quantile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestSamplesSortsAndCounts(t *testing.T) {
	var s Samples
	for _, ms := range []float64{9, 1, 5, 3, 7} {
		s.AddMS(ms)
	}
	s.Add(2 * time.Millisecond)
	if s.N() != 6 {
		t.Fatalf("N = %d, want 6", s.N())
	}
	if got := s.Quantile(0.5); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if got := s.Quantile(1); got != 9 {
		t.Errorf("max = %v, want 9", got)
	}
}

func TestSamplesConcurrentAdds(t *testing.T) {
	var s Samples
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.AddMS(1)
			}
		}()
	}
	wg.Wait()
	if s.N() != 4000 {
		t.Fatalf("N = %d, want 4000", s.N())
	}
}

func TestBeyondCountsTailSamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{0, 0.99, 0}, {100, 0.9, 10}, {1000, 0.99, 10}, {1001, 0.99, 10}, {999, 0.99, 10}, {200, 0.95, 10}, {10, 0.5, 5},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestTallyAccounting(t *testing.T) {
	var tl Tally
	tl.Op(false)
	tl.Op(true)
	tl.Op(false)
	if tl.Attempted() != 3 || tl.Failed() != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", tl.Attempted(), tl.Failed())
	}
}

func TestCountOverlapping(t *testing.T) {
	ops := []interval{{0, 10}, {10, 20}, {25, 30}, {40, 50}}
	stalls := []interval{{18, 26}}
	if got := countOverlapping(ops, stalls); got != 2 {
		t.Fatalf("overlapping = %d, want 2", got)
	}
	if got := countOverlapping(ops, nil); got != 0 {
		t.Fatalf("overlapping with no stalls = %d, want 0", got)
	}
}

func TestRatioOfZeroBase(t *testing.T) {
	if ratio(5, 0) != 0 || ratio(6, 3) != 2 {
		t.Fatal("ratio must be a/b, and 0 for a bypassed layer")
	}
}

func TestTracerSelfTimeAndCoverage(t *testing.T) {
	tr := &Tracer{}
	root := tr.Record("cycle", 1, 0, 0, 100)
	tr.Record("a", 1, root, 0, 40)
	tr.Record("b", 1, root, 45, 95)
	self := tr.SelfTimes()
	if self["cycle"] != 10 || self["a"] != 40 || self["b"] != 50 {
		t.Fatalf("self times %v", self)
	}
	if got := tr.Coverage("cycle"); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("coverage = %v, want 0.9", got)
	}
	var off *Tracer
	if off.Record("x", 1, 0, 0, 1) != 0 || len(off.Spans()) != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestMaintWindows(t *testing.T) {
	c := newClock()
	calls := 0
	m := newMaint(c, func() error { calls++; return nil }, func() error { calls++; return nil })
	m.Start()
	m.Kick()
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	m.RunNow()
	purges, ckpts := m.windows(0, c.now()+time.Second)
	if calls != 4 || len(purges) != 2 || len(ckpts) != 2 {
		t.Fatalf("calls %d purges %d checkpoints %d, want 4, 2, 2", calls, len(purges), len(ckpts))
	}
	if p, k := m.windows(c.now()+time.Second, c.now()+2*time.Second); len(p)+len(k) != 0 {
		t.Fatal("windows outside the range must not be returned")
	}
}
