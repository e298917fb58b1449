package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ediflow/internal/metrics"
)

// clock is the run's monotonic time base: every span, due time and
// stall window is an offset from t0.
type clock struct{ t0 time.Time }

func newClock() clock              { return clock{t0: time.Now()} }
func (c clock) now() time.Duration { return time.Since(c.t0) }

// waitUntil blocks until the clock reaches due. It sleeps to within a
// millisecond of due and yields the processor for the rest: on a busy
// process a sleeping goroutine wakes up to a millisecond late, and an
// open-loop generator would charge that lateness to the program. It
// returns false if stop closes first (a nil stop never does).
func waitUntil(c clock, due time.Duration, stop <-chan struct{}) bool {
	if lead := due - c.now() - time.Millisecond; lead > 0 {
		t := time.NewTimer(lead)
		select {
		case <-stop:
			t.Stop()
			return false
		case <-t.C:
		}
	}
	for c.now() < due {
		select {
		case <-stop:
			return false
		default:
		}
		runtime.Gosched()
	}
	return true
}

// regSnap is a point-in-time copy of a metrics registry, read from
// outside through Registry.Snapshot.
type regSnap map[string]metrics.Sample

func snapRegistry(r *metrics.Registry) regSnap {
	s := regSnap{}
	if r == nil {
		return s
	}
	for _, m := range r.Snapshot() {
		s[m.Name] = m
	}
	return s
}

// delta is the growth of a counter (or a histogram's observation count)
// between two snapshots.
func delta(a, b regSnap, name string) float64 { return float64(b[name].Count - a[name].Count) }

// histMeanUS is the mean of the observations a histogram took between
// two snapshots, in microseconds.
func histMeanUS(a, b regSnap, name string) float64 {
	n := b[name].Count - a[name].Count
	sum := b[name].Hist.Sum - a[name].Hist.Sum
	return ratio(float64(sum)/float64(time.Microsecond), float64(n))
}

// histP50US is a histogram's lifetime median in microseconds. The
// program's histograms have power-of-two buckets, so this is the upper
// bound of the median's bucket.
func histP50US(s regSnap, name string) float64 {
	return float64(s[name].Hist.P50) / float64(time.Microsecond)
}

// rtProbe measures the Go runtime between start and stop.
type rtProbe struct {
	before runtime.MemStats
	cpu    time.Duration
}

func startRuntime() *rtProbe {
	p := &rtProbe{cpu: cpuTime()}
	runtime.ReadMemStats(&p.before)
	return p
}

// stop fills in MB allocated, GC cycles completed, the p99 GC pause
// (µs) of the cycles that ran in between (at most the last 256) and the
// CPU time used.
func (p *rtProbe) stop(in *layerInputs) {
	in.cpu = cpuTime() - p.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	in.allocMB = float64(after.TotalAlloc-p.before.TotalAlloc) / (1 << 20)
	in.gcs = after.NumGC - p.before.NumGC
	var pauses []float64
	for k := p.before.NumGC + 1; k <= after.NumGC; k++ {
		if after.NumGC-k >= uint32(len(after.PauseNs)) {
			continue
		}
		pauses = append(pauses, float64(after.PauseNs[(k+255)%256])/1e3)
	}
	sort.Float64s(pauses)
	in.gcPauseP99US = quantile(pauses, 0.99)
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostInfo is recorded next to every result.
type hostInfo struct {
	GitRev      string `json:"git_rev"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       bool   `json:"trace"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	FlushPolicy string `json:"flush_policy"`
}

func describeHost(workload string, seed int64, trace bool, flush string) hostInfo {
	return hostInfo{
		GitRev:      gitRev(),
		Workload:    workload,
		Seed:        seed,
		Trace:       trace,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		FlushPolicy: flush,
	}
}

// gitRev is the revision the binary was built from, as the go command
// stamped it; a checkout without version control has none.
func gitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

var cpuModelOnce = sync.OnceValue(func() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
})

func cpuModel() string { return cpuModelOnce() }
