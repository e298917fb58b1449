package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// brushConfig sizes the brush-and-link workload.
type brushConfig struct {
	Rows       int     // fact-table rows, seeded
	VMax       int64   // v is uniform in [0, VMax)
	Groups     int64   // histogram bins: s is uniform in [0, Groups)
	Brush      float64 // share of the v range one brush selects
	Detail     int     // tuples the detail view looks up by _tid
	WriteRate  int     // writer statements per second
	MaintEvery int     // interactions between checkpoints
}

func defaultBrush() brushConfig {
	return brushConfig{Rows: 100000, VMax: 1000000, Groups: 32, Brush: 0.10, Detail: 1000, WriteRate: 200, MaintEvery: 100}
}

const (
	brushScatterSQL = "SELECT _tid, v, x, y FROM facts WHERE v >= ? AND v < ? AS OF ?"
	brushSummarySQL = "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM facts WHERE v >= ? AND v < ? AS OF ?"
	brushHistSQL    = "SELECT s, COUNT(*) FROM facts WHERE v >= ? AND v < ? GROUP BY s AS OF ?"
	brushInsertSQL  = "INSERT INTO facts (id, v, s, x, y) VALUES (?, ?, ?, ?, ?)"
	brushUpdateSQL  = "UPDATE facts SET v = ?, x = ?, y = ? WHERE id = ?"
	brushDeleteSQL  = "DELETE FROM facts WHERE id = ?"
)

type brush struct {
	cfg    brushConfig
	db     *database.DB
	rng    *rand.Rand // reader's brushes and detail samples
	wrng   *rand.Rand // writer's statements
	live   []int64    // writer-owned: live ids
	nextID int64
}

func (b *brush) factArgs(rng *rand.Rand, id int64) []types.Value {
	return []types.Value{types.NewInt(id), types.NewInt(rng.Int63n(b.cfg.VMax)), types.NewInt(rng.Int63n(b.cfg.Groups)),
		types.NewFloat(rng.Float64()), types.NewFloat(rng.Float64())}
}

func setupBrush(dir string, cfg brushConfig, seed int64) (b *brush, err error) {
	db, err := database.OpenWith(dir, storeOptions())
	if err != nil {
		return nil, err
	}
	b = &brush{cfg: cfg, db: db, rng: rand.New(rand.NewSource(seed)), wrng: rand.New(rand.NewSource(seed + 1))}
	defer func() {
		if err != nil {
			db.Close()
			b = nil
		}
	}()
	// Queries run serially so the reader and the writer each have one of
	// the two CPUs: with the default width the reader's second worker
	// took the writer's CPU, and the writer's median followed the
	// scheduler rather than the program (1.6–2.2 ms over ten runs).
	db.SetParallelism(1)
	if _, err = db.Exec("CREATE TABLE facts (id INT PRIMARY KEY, v INT, s INT, x FLOAT, y FLOAT)"); err != nil {
		return b, err
	}
	prng := rand.New(rand.NewSource(seed + 2))
	for b.nextID < int64(cfg.Rows) {
		n := min(1000, cfg.Rows-int(b.nextID))
		args := make([]types.Value, 0, 5*n)
		for i := 0; i < n; i++ {
			b.nextID++
			args = append(args, b.factArgs(prng, b.nextID)...)
			b.live = append(b.live, b.nextID)
		}
		if _, err = db.Exec("INSERT INTO facts (id, v, s, x, y) VALUES "+placeholders(n, 5), args...); err != nil {
			return b, err
		}
	}
	return b, nil
}

// writeOp is one writer statement: due, sent and returned.
type writeOp struct{ due, sent, at time.Duration }

// writer issues single-row UPDATE/INSERT/DELETE at cfg.WriteRate from
// start until stop closes — an open loop: a stall delays later
// statements, which are timed from when they were due.
type writer struct {
	mu    sync.Mutex
	ops   []writeOp
	tally Tally
	err   error
}

func (b *brush) write(c clock, start time.Duration, stop <-chan struct{}, w *writer) {
	interval := time.Second / time.Duration(b.cfg.WriteRate)
	for k := int64(0); ; k++ {
		due := start + time.Duration(k)*interval
		if !waitUntil(c, due, stop) {
			return
		}
		sql, args := b.nextWrite()
		sent := c.now()
		_, err := b.db.Exec(sql, args...)
		at := c.now()
		w.tally.Op(err != nil)
		w.mu.Lock()
		w.ops = append(w.ops, writeOp{due, sent, at})
		if err != nil && w.err == nil {
			w.err = err
		}
		w.mu.Unlock()
	}
}

// nextWrite picks the writer's next statement: half updates, a quarter
// each inserts and deletes, so the table stays near its seeded size.
func (b *brush) nextWrite() (string, []types.Value) {
	r := b.wrng
	switch x := r.Intn(4); {
	case x < 2 || len(b.live) < 2:
		id := b.live[r.Intn(len(b.live))]
		return brushUpdateSQL, []types.Value{types.NewInt(r.Int63n(b.cfg.VMax)), types.NewFloat(r.Float64()), types.NewFloat(r.Float64()), types.NewInt(id)}
	case x == 2:
		b.nextID++
		b.live = append(b.live, b.nextID)
		return brushInsertSQL, b.factArgs(r, b.nextID)
	default:
		i := r.Intn(len(b.live))
		id := b.live[i]
		b.live[i] = b.live[len(b.live)-1]
		b.live = b.live[:len(b.live)-1]
		return brushDeleteSQL, []types.Value{types.NewInt(id)}
	}
}

// interaction is one brush: four linked views on one snapshot.
type interaction struct {
	total  time.Duration
	window interval
	steps  [5]time.Duration // scatter, summary, histogram, detail text, detail
	texts  []string
}

var brushSteps = [5]string{"engine.scatter", "engine.summary", "engine.histogram", "harness.detail_text", "engine.detail"}

// interact runs one brush interaction and checks the four views agree.
func (b *brush) interact(c clock) (interaction, string, error) {
	var it interaction
	width := int64(float64(b.cfg.VMax) * b.cfg.Brush)
	lo := b.rng.Int63n(b.cfg.VMax - width + 1)
	bounds := []types.Value{types.NewInt(lo), types.NewInt(lo + width)}
	t0 := c.now()
	seq := types.NewInt(b.db.Store().SnapshotSeq())
	args := append(bounds, seq)
	scatter, err := b.db.Query(brushScatterSQL, args...)
	if err != nil {
		return it, "", err
	}
	t1 := c.now()
	summary, err := b.db.Query(brushSummarySQL, args...)
	if err != nil {
		return it, "", err
	}
	t2 := c.now()
	hist, err := b.db.Query(brushHistSQL, args...)
	if err != nil {
		return it, "", err
	}
	t3 := c.now()
	pick := b.sample(len(scatter.Rows))
	var sb strings.Builder
	sb.WriteString("SELECT _tid, v FROM facts WHERE _tid IN (")
	for i, idx := range pick {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatInt(scatter.Rows[idx][0].Int(), 10))
	}
	sb.WriteString(") AS OF ?")
	detailSQL := sb.String()
	t4 := c.now()
	detail, err := b.db.Query(detailSQL, seq)
	if err != nil {
		return it, "", err
	}
	t5 := c.now()
	it.total = t5 - t0
	it.window = interval{t0, t5}
	it.steps = [5]time.Duration{t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4}
	it.texts = []string{brushScatterSQL, brushSummarySQL, brushHistSQL, detailSQL}
	return it, checkBrush(scatter.Rows, summary.Rows, hist.Rows, detail.Rows, pick), nil
}

// sample draws min(Detail, n) distinct indexes below n.
func (b *brush) sample(n int) []int {
	k := min(b.cfg.Detail, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + b.rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// checkBrush verifies the linked views of one snapshot agree: the
// summary's COUNT equals the scatter's rows and the histogram's total,
// its SUM/MIN/MAX/AVG match the scatter's v values, and the detail
// view returns exactly the picked tuples with the same v.
func checkBrush(scatter, summary, hist, detail []types.Row, pick []int) string {
	if len(summary) != 1 {
		return fmt.Sprintf("summary returned %d rows", len(summary))
	}
	s := summary[0]
	var sum, lo, hi int64
	lo, hi = math.MaxInt64, math.MinInt64
	for _, r := range scatter {
		v := r[1].Int()
		sum += v
		lo, hi = min(lo, v), max(hi, v)
	}
	n := int64(len(scatter))
	if s[0].Int() != n {
		return fmt.Sprintf("summary COUNT %d != scatter rows %d", s[0].Int(), n)
	}
	var binned int64
	for _, r := range hist {
		binned += r[1].Int()
	}
	if binned != n {
		return fmt.Sprintf("histogram total %d != scatter rows %d", binned, n)
	}
	if n == 0 {
		return "the brush selected no rows"
	}
	if s[1].Int() != sum || s[3].Int() != lo || s[4].Int() != hi {
		return fmt.Sprintf("summary SUM/MIN/MAX %v/%v/%v != scatter %d/%d/%d", s[1], s[3], s[4], sum, lo, hi)
	}
	if avg := s[2].Float(); math.Abs(avg-float64(sum)/float64(n)) > 1e-6*math.Abs(avg)+1e-9 {
		return fmt.Sprintf("summary AVG %g != scatter mean %g", avg, float64(sum)/float64(n))
	}
	want := make(map[int64]int64, len(pick))
	for _, i := range pick {
		want[scatter[i][0].Int()] = scatter[i][1].Int()
	}
	if len(detail) != len(want) {
		return fmt.Sprintf("detail returned %d rows for %d picked tuples", len(detail), len(want))
	}
	for _, r := range detail {
		v, ok := want[r[0].Int()]
		if !ok || v != r[1].Int() {
			return fmt.Sprintf("detail row for tid %d does not match the scatter", r[0].Int())
		}
		delete(want, r[0].Int())
	}
	return ""
}

// brushPhase accumulates one measured phase of the reader.
type brushPhase struct {
	from, to     time.Duration
	interactions Samples
	steps        [5]Samples
	windows      []interval
	parse        Samples
	tally        Tally
	checkErrs    []string
}

func (b *brush) readPhase(c clock, m *maint, tr *Tracer, until time.Duration, op *int64, ph *brushPhase) error {
	ph.from = c.now()
	for c.now() < until {
		*op++
		it, bad, err := b.interact(c)
		if err != nil {
			return err
		}
		ph.tally.Op(bad != "")
		if bad != "" && len(ph.checkErrs) < 5 {
			ph.checkErrs = append(ph.checkErrs, bad)
		}
		ph.interactions.Add(it.total)
		ph.windows = append(ph.windows, it.window)
		for i, d := range it.steps {
			ph.steps[i].Add(d)
		}
		if tr != nil {
			root := tr.Record("brush.interaction", *op, 0, it.window.start, it.window.end)
			at := it.window.start
			for i, d := range it.steps {
				tr.Record(brushSteps[i], *op, root, at, at+d)
				at += d
			}
			for _, text := range it.texts {
				s := time.Now()
				if _, err := sqltext.Parse(text); err != nil {
					return err
				}
				ph.parse.Add(time.Since(s))
			}
		}
		// Maintenance runs between interactions, so every AS OF seq an
		// interaction pins stays above the vacuum floor.
		if *op%int64(b.cfg.MaintEvery) == 0 {
			m.RunNow()
		}
	}
	ph.to = c.now()
	return nil
}

// writerStats selects the writer statements due inside [from, to).
func writerStats(w *writer, from, to time.Duration) (lat, exec, lag *Samples, windows []interval) {
	lat, exec, lag = &Samples{}, &Samples{}, &Samples{}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, op := range w.ops {
		if op.due < from || op.due >= to {
			continue
		}
		lat.Add(op.at - op.due)
		exec.Add(op.at - op.sent)
		lag.Add(op.sent - op.due)
		windows = append(windows, interval{op.due, op.at})
	}
	return lat, exec, lag, windows
}

func runBrush(cfg brushConfig, o runOpts) (*report, error) {
	r := newReport()
	b, setupS, err := repeatSetup(o, func(dir string) (*brush, error) { return setupBrush(dir, cfg, o.seed) }, func(b *brush) { b.db.Close() })
	if err != nil {
		return nil, err
	}
	defer b.db.Close()
	r.e2e["setup_s"] = setupS
	r.notef("brush_link: %d rows, %.0f%% brush, %d-tuple detail, writer %d stmts/s, checkpoint every %d interactions",
		cfg.Rows, cfg.Brush*100, cfg.Detail, cfg.WriteRate, cfg.MaintEvery)

	c := newClock()
	m := newMaint(c, nil, b.db.Checkpoint)
	w := &writer{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.write(c, c.now(), stop, w)
	}()
	stopWriter := func() error {
		close(stop)
		wg.Wait()
		return w.err
	}
	p := makePlan(o.seconds, o.trace)
	var op int64
	measure := func(dur time.Duration, tr *Tracer) (*brushPhase, layerInputs, error) {
		ph := &brushPhase{}
		in := layerInputs{db0: snapRegistry(b.db.Metrics()), maint: m, from: c.now()}
		rt := startRuntime()
		err := b.readPhase(c, m, tr, in.from+dur, &op, ph)
		rt.stop(&in)
		in.to, in.db1 = c.now(), snapRegistry(b.db.Metrics())
		in.ops, in.parse = len(ph.windows), &ph.parse
		return ph, in, err
	}
	var calib, final *brushPhase
	var in layerInputs
	if _, _, err = measure(p.warmup, nil); err == nil {
		if p.traced {
			if calib, _, err = measure(p.calib, nil); err == nil {
				r.tracer = &Tracer{}
				final, in, err = measure(p.measure, r.tracer)
			}
		} else {
			final, in, err = measure(p.measure, nil)
		}
	}
	if werr := stopWriter(); err == nil && werr != nil {
		err = fmt.Errorf("brush writer: %w", werr)
	}
	if err != nil {
		return nil, err
	}
	if err := m.Stop(); err != nil {
		return nil, fmt.Errorf("brush maintenance: %w", err)
	}
	wlat, wexec, wlag, wwin := writerStats(w, final.from, final.to)
	r.e2e["live_heap_mb"] = liveHeapMB()
	r.e2e["latency_p50_ms"] = final.interactions.Quantile(0.5)
	r.e2e["latency_tail_ms"] = final.interactions.Quantile(0.9)
	r.e2e["write_p50_ms"] = wlat.Quantile(0.5)
	r.e2e["throughput_per_s"] = ratio(float64(final.interactions.N()), (final.to - final.from).Seconds())
	r.timing("interaction (latency_p50_ms, latency_tail_ms = p90)", &final.interactions, 0.5, 0.9)
	r.timing("writer, due → Exec return (write_p50_ms)", wlat, 0.5, 0.99)
	phaseNotes(r, in)
	r.notef("interactions %d, p90 has %d samples beyond it; writer statements %d", final.interactions.N(), beyond(final.interactions.N(), 0.9), wlat.N())
	if p.traced {
		in.opWindows = append(final.windows, wwin...)
		commonLayers(r, in)
		L := r.layer
		for i, name := range brushSteps {
			if strings.HasPrefix(name, "engine.") {
				L[name+"_ms"] = final.steps[i].Quantile(0.5)
			}
		}
		L["engine.writer_stmt_ms"] = wexec.Quantile(0.5)
		L["writer.lag_p99_ms"] = wlag.Quantile(0.99)
		L["trace.overhead_pct"] = overheadPct(calib.interactions.Quantile(0.5), final.interactions.Quantile(0.5))
		r.timing("calibration interaction (untraced)", &calib.interactions, 0.5, 0.9)
		r.attempted += calib.tally.Attempted()
		r.failed += calib.tally.Failed()
		r.checkErrs = append(r.checkErrs, calib.checkErrs...)
	}
	r.attempted += final.tally.Attempted() + w.tally.Attempted()
	r.failed += final.tally.Failed() + w.tally.Failed()
	r.checkErrs = append(r.checkErrs, final.checkErrs...)
	return r, nil
}
