package metrics

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("x.count") != c {
		t.Fatal("Counter is not stable per name")
	}
	// nil receivers are inert, so call sites need no guards.
	var nc *Counter
	nc.Add(1)
	var nr *Registry
	if nr.Counter("y") != nil || nr.Enabled() {
		t.Fatal("nil registry must be inert")
	}
	nr.SetEnabled(true)
	if nr.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	st := h.Stat()
	if st.Count != 100 {
		t.Fatalf("count = %d, want 100", st.Count)
	}
	if st.Max != 5*time.Millisecond {
		t.Fatalf("max = %v, want 5ms", st.Max)
	}
	if st.P50 > 100*time.Microsecond {
		t.Fatalf("p50 = %v, want ≤ 100µs", st.P50)
	}
	// p95 falls in the 5ms observations; bucket bounds are conservative
	// upper bounds, so it must be ≥ 5ms and within one power of two.
	if st.P95 < 5*time.Millisecond || st.P95 > 16*time.Millisecond {
		t.Fatalf("p95 = %v, want ~5ms", st.P95)
	}
	if st.Avg() <= 0 {
		t.Fatalf("avg = %v, want > 0", st.Avg())
	}
	// Negative durations clamp instead of corrupting buckets.
	h.Observe(-time.Second)
	if h.Stat().Count != 101 {
		t.Fatal("negative observation lost")
	}
}

func TestValueHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.ValueHistogram("sizes")
	if r.ValueHistogram("sizes") != h {
		t.Fatal("ValueHistogram is not stable per name")
	}
	for _, n := range []int64{1, 1, 1, 3, 8, 8, 100, -4} {
		h.Observe(n)
	}
	st := h.Stat()
	if st.Count != 8 || st.Sum != 122 || st.Max != 100 {
		t.Fatalf("stat = %+v, want count 8, sum 122 (negative clamps to 0), max 100", st)
	}
	// Bounds are counts, not nanoseconds: the median 3 lands in the
	// (2, 4] bucket and the p99 in the bucket holding 100.
	if st.P50 != 4 || st.P99 != 128 {
		t.Fatalf("p50 = %d, p99 = %d; want 4 and 128", st.P50, st.P99)
	}
	if st.Avg() != 122.0/8 {
		t.Fatalf("avg = %v", st.Avg())
	}
	var nh *ValueHistogram
	nh.Observe(1)
	var nr *Registry
	if nr.ValueHistogram("x") != nil {
		t.Fatal("nil registry must be inert")
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "values" || snap[0].Count != 8 || snap[0].Values != st {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Stat().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestGaugeAndSnapshotOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.counter").Add(2)
	r.Histogram("c.hist").Observe(time.Millisecond)
	r.RegisterGauge("a.gauge", func() int64 { return 7 })
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d samples, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	if snap[0].Name != "a.gauge" || snap[0].Count != 7 || snap[0].Kind != "gauge" {
		t.Fatalf("gauge sample = %+v", snap[0])
	}
}

func TestEnableDisable(t *testing.T) {
	r := NewRegistry()
	if !r.Enabled() {
		t.Fatal("registry must start enabled")
	}
	h := r.Histogram("h")
	r.Time(h)()
	if h.Stat().Count != 1 {
		t.Fatal("Time did not observe while enabled")
	}
	r.SetEnabled(false)
	r.Time(h)()
	if h.Stat().Count != 1 {
		t.Fatal("Time observed while disabled")
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3, time.Millisecond)
	if l.ShouldRecord(time.Microsecond, false) {
		t.Fatal("fast statement should not be recorded")
	}
	if !l.ShouldRecord(time.Microsecond, true) {
		t.Fatal("failed statement must always be recorded")
	}
	if !l.ShouldRecord(2*time.Millisecond, false) {
		t.Fatal("slow statement must be recorded")
	}
	for i := 0; i < 5; i++ {
		l.Record(fmt.Sprintf("stmt-%d", i), time.Duration(i)*time.Millisecond, int64(i), int64(i*2), "")
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3 (capacity)", l.Len())
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	// Oldest-first, and the two oldest entries were evicted.
	for i, e := range snap {
		want := fmt.Sprintf("stmt-%d", i+2)
		if e.SQL != want {
			t.Fatalf("snapshot[%d].SQL = %q, want %q", i, e.SQL, want)
		}
		if e.Seq != int64(i+3) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, e.Seq, i+3)
		}
	}
	// A nil slow log is inert.
	var nl *SlowLog
	nl.Record("x", 0, 0, 0, "")
	if nl.ShouldRecord(time.Hour, true) || nl.Len() != 0 || nl.Snapshot() != nil {
		t.Fatal("nil slow log must be inert")
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Record("q", time.Duration(i), 1, 1, "")
			}
		}(g)
	}
	wg.Wait()
	if l.Total() != 1600 {
		t.Fatalf("total = %d, want 1600", l.Total())
	}
	snap := l.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot len = %d, want 16", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("snapshot seqs not contiguous: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("wal.bytes").Add(123)
	r.Histogram("engine.exec").Observe(2 * time.Millisecond)
	r.ValueHistogram("wal.group_commit_size").Observe(5)
	l := NewSlowLog(4, 0)
	l.Record("SELECT 1", 3*time.Millisecond, 10, 1, "")
	rec := httptest.NewRecorder()
	Handler(r, l).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{"wal.bytes 123", "engine.exec count=1", "wal.group_commit_size count=1 sum=5", "slowlog seq=1", `sql="SELECT 1"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("handler output missing %q:\n%s", want, body)
		}
	}
}
