package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; main_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd metrics are printed by untraced runs. Every workload reports
// each of them; what "the operation" is depends on the workload:
//
//	fig8_chain  one Figure-8 cycle, external txn → display mirror
//	firehose    one delta, row due time → handler delivery
//	brush_link  one four-view brush interaction
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
}

// perLayer metrics are printed by traced runs. A layer a workload does
// not touch reads 0 there: that is the bypass the workload predicts.
var perLayer = []metricDef{
	{"sqltext.parse_us", "us", "lower"},
	{"engine.ext_txn_ms", "ms", "lower"},
	{"engine.tid_lookup_ms", "ms", "lower"},
	{"engine.scatter_ms", "ms", "lower"},
	{"engine.summary_ms", "ms", "lower"},
	{"engine.histogram_ms", "ms", "lower"},
	{"engine.detail_ms", "ms", "lower"},
	{"engine.insert_batch_ms", "ms", "lower"},
	{"engine.retention_delete_ms", "ms", "lower"},
	{"engine.writer_stmt_ms", "ms", "lower"},
	{"engine.plan_cache_hit_ratio", "ratio", "higher"},
	{"engine.rows_scanned_per_row", "ratio", "lower"},
	{"vm.rows_per_op", "count", "lower"},
	{"vm.fallback_ratio", "ratio", "lower"},
	{"vm.parallel_queries", "count", "higher"},
	{"storage.fsync_p50_us", "us", "lower"},
	{"storage.fsync_mean_us", "us", "lower"},
	{"storage.fsyncs_per_op", "ratio", "lower"},
	{"storage.wal_bytes_per_op", "B", "lower"},
	{"storage.checkpoint_ms", "ms", "lower"},
	{"storage.checkpoint_stalled_ops", "count", "lower"},
	{"mvcc.versions", "count", "lower"},
	{"mvcc.vacuumed", "count", "higher"},
	{"react.queue_wait_p50_ms", "ms", "lower"},
	{"react.queue_wait_p99_ms", "ms", "lower"},
	{"react.events_per_delta", "ratio", "higher"},
	{"react.coalesced", "count", "lower"},
	{"react.shed", "count", "lower"},
	{"react.blocked", "count", "lower"},
	{"react.policy_escalations", "count", "lower"},
	{"notify.hop1_ms", "ms", "lower"},
	{"notify.hop2_ms", "ms", "lower"},
	{"notify.pending_ms", "ms", "lower"},
	{"notify.ack_ms", "ms", "lower"},
	{"notify.purge_ms", "ms", "lower"},
	{"notify.lines_per_op", "ratio", "lower"},
	{"notify.dropped_ratio", "ratio", "lower"},
	{"vis.write_ms", "ms", "lower"},
	{"tablesync.refresh_ms", "ms", "lower"},
	{"tablesync.rows_fetched_per_refresh", "ratio", "lower"},
	{"tablesync.refreshes_per_op", "ratio", "lower"},
	{"client.roundtrip_p50_us", "us", "lower"},
	{"server.bytes_out_per_op", "B", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_p99_us", "us", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"writer.lag_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unaccounted_pct", "%", "lower"},
}

// report is what one workload run hands back to main.
type report struct {
	attempted, failed int64
	checkErrs         []string           // failed correctness checks
	e2e               map[string]float64 // untraced phase
	layer             map[string]float64 // traced phase (trace runs only)
	notes             []string           // human-readable lines, sample counts included
	tracer            *Tracer
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkf records a failed correctness check.
func (r *report) checkf(format string, args ...any) {
	r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
}

// timing records a latency series in the notes with its sample count.
func (r *report) timing(name string, s *Samples, ps ...float64) {
	var parts []string
	for _, p := range ps {
		parts = append(parts, fmt.Sprintf("p%g=%.3fms", p*100, s.Quantile(p)))
	}
	r.notef("%s: %s (n=%d)", name, strings.Join(parts, " "), s.N())
}

// plan splits a run's time. Untraced runs warm up, then measure; traced
// runs warm up, measure untraced for calibration, then measure traced.
type plan struct {
	warmup, calib, measure time.Duration
	traced                 bool
}

func makePlan(seconds time.Duration, traced bool) plan {
	warm := seconds / 10
	if warm > 3*time.Second {
		warm = 3 * time.Second
	}
	if !traced {
		return plan{warmup: warm, measure: seconds}
	}
	return plan{warmup: warm, calib: seconds / 2, measure: seconds / 2, traced: true}
}

// overheadPct compares the traced phase's median against the untraced
// calibration phase's.
func overheadPct(untraced, traced float64) float64 {
	return ratio(traced-untraced, untraced) * 100
}

// maint is the background maintenance ediserver runs — Notification
// purge then checkpoint — triggered by operation count so every run
// completes several rounds. Kick runs it in the maintenance goroutine;
// RunNow runs it on the caller's goroutine.
type maint struct {
	c     clock
	purge func() error // nil when the workload has no notifier
	ckpt  func() error

	mu     sync.Mutex
	purges []interval
	ckpts  []interval
	err    error

	kick chan struct{}
	wg   sync.WaitGroup
}

func newMaint(c clock, purge, ckpt func() error) *maint {
	return &maint{c: c, purge: purge, ckpt: ckpt}
}

// Start launches the maintenance goroutine; Stop ends it.
func (m *maint) Start() {
	m.kick = make(chan struct{}, 1)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for range m.kick {
			m.RunNow()
		}
	}()
}

// Kick asks for one round without waiting; a round already queued
// absorbs it.
func (m *maint) Kick() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// Stop waits for the goroutine to finish its last round and returns the
// first error any round hit.
func (m *maint) Stop() error {
	if m.kick != nil {
		close(m.kick)
		m.wg.Wait()
		m.kick = nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// RunNow performs one purge + checkpoint round.
func (m *maint) RunNow() {
	var perr, cerr error
	s := m.c.now()
	if m.purge != nil {
		perr = m.purge()
	}
	p := m.c.now()
	cerr = m.ckpt()
	e := m.c.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.purge != nil {
		m.purges = append(m.purges, interval{s, p})
	}
	m.ckpts = append(m.ckpts, interval{p, e})
	if m.err == nil {
		if perr != nil {
			m.err = fmt.Errorf("purge: %w", perr)
		} else if cerr != nil {
			m.err = fmt.Errorf("checkpoint: %w", cerr)
		}
	}
}

// windows returns the purge and checkpoint windows that started within
// [from, to).
func (m *maint) windows(from, to time.Duration) (purges, ckpts []interval) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pick := func(all []interval) []interval {
		var out []interval
		for _, w := range all {
			if w.start >= from && w.start < to {
				out = append(out, w)
			}
		}
		return out
	}
	return pick(m.purges), pick(m.ckpts)
}

// durationsMS turns windows into a sample series.
func durationsMS(ws []interval) *Samples {
	s := &Samples{}
	for _, w := range ws {
		s.Add(w.end - w.start)
	}
	return s
}

// layerInputs is what the shared per-layer computation needs from one
// traced phase.
type layerInputs struct {
	ops          int // workload operations in the phase
	db0, db1     regSnap
	cl0, cl1     regSnap // client registry (display over the wire); empty otherwise
	opWindows    []interval
	maint        *maint
	from, to     time.Duration
	allocMB      float64
	gcs          uint32
	gcPauseP99US float64
	cpu          time.Duration // process CPU time used
	parse        *Samples      // sqltext.Parse timings, ms
}

// phaseNotes records, for any measured phase, what the disk and the CPU
// cost per operation, so a slow run can be told apart from a slow host.
func phaseNotes(r *report, in layerInputs) {
	ops := float64(in.ops)
	r.notef("per op: %.2f fsyncs (mean %.1fus), %.2fms CPU, %.3fMB allocated; %d GC cycles",
		ratio(delta(in.db0, in.db1, "wal.fsyncs"), ops), histMeanUS(in.db0, in.db1, "wal.fsync_latency"),
		ratio(float64(in.cpu)/1e6, ops), ratio(in.allocMB, ops), in.gcs)
}

// commonLayers fills the per-layer metrics every workload derives the
// same way: registry deltas, maintenance windows and runtime counters.
func commonLayers(r *report, in layerInputs) {
	ops := float64(in.ops)
	d := func(name string) float64 { return delta(in.db0, in.db1, name) }
	L := r.layer
	L["sqltext.parse_us"] = in.parse.Quantile(0.5) * 1e3
	L["engine.plan_cache_hit_ratio"] = ratio(d("engine.plan_cache_hit"), d("engine.plan_cache_hit")+d("engine.plan_cache_miss"))
	L["engine.rows_scanned_per_row"] = ratio(d("engine.rows_scanned"), d("engine.rows_returned"))
	L["vm.rows_per_op"] = ratio(d("vm.rows"), ops)
	L["vm.fallback_ratio"] = ratio(d("vm.fallback"), d("vm.compile"))
	L["vm.parallel_queries"] = d("vm.parallel_queries")
	L["storage.fsync_p50_us"] = histP50US(in.db1, "wal.fsync_latency")
	L["storage.fsync_mean_us"] = histMeanUS(in.db0, in.db1, "wal.fsync_latency")
	L["storage.fsyncs_per_op"] = ratio(d("wal.fsyncs"), ops)
	L["storage.wal_bytes_per_op"] = ratio(d("wal.bytes"), ops)
	purges, ckpts := in.maint.windows(in.from, in.to)
	L["storage.checkpoint_ms"] = durationsMS(ckpts).Quantile(0.5)
	L["storage.checkpoint_stalled_ops"] = float64(countOverlapping(in.opWindows, ckpts))
	L["mvcc.versions"] = float64(in.db1["mvcc.versions"].Count)
	L["mvcc.vacuumed"] = d("mvcc.vacuumed")
	L["react.events_per_delta"] = ratio(d("react.events"), d("react.delivered"))
	L["react.coalesced"] = d("react.coalesced")
	L["react.shed"] = d("react.shed")
	L["react.blocked"] = d("react.blocked")
	L["react.policy_escalations"] = d("react.policy_escalations")
	L["notify.purge_ms"] = durationsMS(purges).Quantile(0.5)
	L["notify.lines_per_op"] = ratio(d("notify.sent"), ops)
	L["notify.dropped_ratio"] = ratio(d("notify.dropped_lines"), d("notify.sent")+d("notify.dropped_lines"))
	c := func(name string) float64 { return delta(in.cl0, in.cl1, name) }
	L["tablesync.rows_fetched_per_refresh"] = ratio(c("tablesync.rows_fetched"), c("tablesync.refreshes"))
	L["tablesync.refreshes_per_op"] = ratio(c("tablesync.refreshes"), ops)
	L["client.roundtrip_p50_us"] = histP50US(in.cl1, "client.roundtrip_latency")
	L["server.bytes_out_per_op"] = ratio(d("server.bytes_out"), ops)
	L["runtime.alloc_mb_per_op"] = ratio(in.allocMB, ops)
	L["runtime.gc_cycles"] = float64(in.gcs)
	L["runtime.gc_pause_p99_us"] = in.gcPauseP99US
	r.notef("maintenance in traced phase: %d purges, %d checkpoints (checkpoint p50 %.3fms, n=%d)",
		len(purges), len(ckpts), L["storage.checkpoint_ms"], len(ckpts))
}

// sortedKeys lists a map's keys in order (for stable report lines).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
