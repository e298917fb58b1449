package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/module"
	"ediflow/internal/notify"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
	"ediflow/internal/wf"
	"ediflow/internal/wf/react"
)

// firehoseConfig sizes the §V reactive-ingestion workload.
type firehoseConfig struct {
	Rate        int // events per second: inserted rows plus single-row updates and deletes
	Batch       int // rows per INSERT, and per retention DELETE
	Live        int // rows kept live: prefilled, then each batch retires the oldest Batch
	Entities    int // aggregate groups of fh_totals
	UpdateEvery int // one single-row UPDATE per this many batches
	DeleteEvery int // one single-row DELETE per this many batches
	MaintEvery  int // insert batches between purge + checkpoint rounds
	AckEvery    int // NOTIFY lines the watcher reads between acks
}

func defaultFirehose() firehoseConfig {
	return firehoseConfig{Rate: 3000, Batch: 64, Live: 200000, Entities: 64,
		UpdateEvery: 4, DeleteEvery: 8, MaintEvery: 150, AckEvery: 32}
}

// delivery is one delta as the handler received it: the due time of its
// oldest row and the receipt time.
type delivery struct{ due, at time.Duration }

// fhSink is the update-propagation target. Every row carries the due
// time of its statement, so latency runs from when the generator should
// have sent it, not from when it did.
type fhSink struct {
	c  clock
	mu sync.Mutex
	d  []delivery
}

func (s *fhSink) RouteDelta(_ string, _ wf.UP, d module.Delta) {
	now := s.c.now()
	worst := int64(-1)
	for _, r := range d.Rows {
		if ts := r[3].Int(); ts >= 0 && (worst < 0 || ts < worst) {
			worst = ts
		}
	}
	if worst < 0 {
		return // deletes only, or prefilled rows: nothing was due
	}
	s.mu.Lock()
	s.d = append(s.d, delivery{due: time.Duration(worst), at: now})
	s.mu.Unlock()
}

func (s *fhSink) deliveries() []delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]delivery(nil), s.d...)
}

type firehose struct {
	cfg      firehoseConfig
	db       *database.DB
	notifier *notify.Notifier
	router   *react.Router
	watcher  *notify.Client
	sink     *fhSink
	rng      *rand.Rand

	stopWatch chan struct{}
	watchWG   sync.WaitGroup
	watchErr  error // written by the watcher goroutine before watchWG.Done

	insertSQL, retireSQL string
	oldest, next         int64 // live ids are [oldest, next) minus deleted
	deleted              map[int64]bool
}

const (
	fhUpdateSQL = "UPDATE fh_edits SET v = ?, ts = ? WHERE id = ?"
	fhDeleteSQL = "DELETE FROM fh_edits WHERE id = ?"
)

func setupFirehose(dir string, cfg firehoseConfig, seed int64, c clock) (f *firehose, err error) {
	db, err := database.OpenWith(dir, storeOptions())
	if err != nil {
		return nil, err
	}
	f = &firehose{cfg: cfg, db: db, rng: rand.New(rand.NewSource(seed)), deleted: map[int64]bool{},
		sink: &fhSink{c: c}, stopWatch: make(chan struct{})}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	f.insertSQL = "INSERT INTO fh_edits (id, entity, v, ts) VALUES " + placeholders(cfg.Batch, 4)
	f.retireSQL = "DELETE FROM fh_edits WHERE id IN (" + strings.TrimSuffix(strings.Repeat("?, ", cfg.Batch), ", ") + ")"
	if _, err = db.Exec("CREATE TABLE fh_edits (id INT PRIMARY KEY, entity INT, v INT, ts INT)"); err != nil {
		return f, err
	}
	// Prefill the live window; ts = -1 marks rows nothing is waiting for.
	f.oldest, f.next = 1, 1
	for f.next <= int64(cfg.Live) {
		n := min(1000, cfg.Live-int(f.next)+1)
		args := make([]types.Value, 0, 4*n)
		for i := 0; i < n; i++ {
			args = f.rowArgs(args, f.next, -1)
			f.next++
		}
		if _, err = db.Exec("INSERT INTO fh_edits (id, entity, v, ts) VALUES "+placeholders(n, 4), args...); err != nil {
			return f, err
		}
	}
	for _, ddl := range []string{
		"CREATE MATERIALIZED VIEW fh_totals AS SELECT entity, COUNT(*) AS n, SUM(v) AS s FROM fh_edits GROUP BY entity",
		"CREATE MATERIALIZED VIEW fh_hot AS SELECT id, entity, v FROM fh_edits WHERE v >= 900",
	} {
		if _, err = db.Exec(ddl); err != nil {
			return f, err
		}
	}
	if f.notifier, err = notify.NewNotifier(db); err != nil {
		return f, err
	}
	f.router = react.NewRouter(db)
	up := wf.UP{Relation: "fh_edits", Activity: "ingest", Scope: wf.ScopeRunning, Policy: wf.PolicyCoalesce}
	if err = f.router.Register("firehose", up, f.sink); err != nil {
		return f, err
	}
	if f.watcher, err = notify.Connect(db, "dashboard", "fh_totals"); err != nil {
		return f, err
	}
	// Workaround for the open NOTIFY registration race (see fig8).
	if err = waitConnections(f.notifier, 1); err != nil {
		return f, err
	}
	f.watchWG.Add(1)
	go f.watch()
	return f, nil
}

// watch is the dashboard peer on the aggregate view: it consumes NOTIFY
// lines and acknowledges them so the maintenance purge can advance.
func (f *firehose) watch() {
	defer f.watchWG.Done()
	var lines int
	for {
		select {
		case <-f.stopWatch:
			return
		case m := <-f.watcher.C:
			if lines++; lines%f.cfg.AckEvery == 0 {
				if err := f.watcher.Ack(m.Seq); err != nil {
					f.watchErr = err
					return
				}
			}
		}
	}
}

// stopWatcher ends the watcher goroutine and returns its error.
func (f *firehose) stopWatcher() error {
	if f.stopWatch != nil {
		close(f.stopWatch)
		f.watchWG.Wait()
		f.stopWatch = nil
	}
	return f.watchErr
}

func (f *firehose) close() {
	f.stopWatcher()
	if f.watcher != nil {
		f.watcher.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	if f.notifier != nil {
		f.notifier.Close()
	}
	f.db.Close()
}

func (f *firehose) rowArgs(args []types.Value, id int64, ts int64) []types.Value {
	return append(args, types.NewInt(id), types.NewInt(f.rng.Int63n(int64(f.cfg.Entities))),
		types.NewInt(f.rng.Int63n(1000)), types.NewInt(ts))
}

// pickLive returns a live id outside the batch the next retention
// DELETE removes, or 0 when none is found quickly.
func (f *firehose) pickLive() int64 {
	lo := f.oldest + int64(f.cfg.Batch)
	if lo >= f.next {
		return 0
	}
	for i := 0; i < 8; i++ {
		id := lo + f.rng.Int63n(f.next-lo)
		if !f.deleted[id] {
			return id
		}
	}
	return 0
}

// stmt is one statement the generator issued.
type stmt struct {
	kind          byte // 'i' insert batch, 'u' update, 'd' delete, 'r' retention delete
	op            int64
	due, sent, at time.Duration // due, sent, Exec returned
}

// fhPhase accumulates one measured phase of the generator.
type fhPhase struct {
	from, to time.Duration
	stmts    []stmt
	events   int64
	tally    Tally
	parse    Samples
}

// generate runs the paced generator until the clock reaches until.
// Events are scheduled at cfg.Rate from start; sent counts the events
// already issued since start.
func (f *firehose) generate(c clock, m *maint, traced bool, start time.Duration, sent *int64, batch *int64, until time.Duration, ph *fhPhase) error {
	rate := float64(f.cfg.Rate)
	dueOf := func(events int64) time.Duration {
		return start + time.Duration(float64(events)/rate*float64(time.Second))
	}
	exec := func(kind byte, due time.Duration, sql string, args ...types.Value) error {
		waitUntil(c, due, nil)
		st := stmt{kind: kind, op: *batch, due: due, sent: c.now()}
		_, err := f.db.Exec(sql, args...)
		st.at = c.now()
		ph.tally.Op(err != nil)
		if err != nil {
			return fmt.Errorf("firehose %c statement: %w", kind, err)
		}
		ph.stmts = append(ph.stmts, st)
		if traced {
			s := time.Now()
			if _, err := sqltext.Parse(sql); err != nil {
				return err
			}
			ph.parse.Add(time.Since(s))
		}
		return nil
	}
	args := make([]types.Value, 0, 4*f.cfg.Batch)
	for {
		due := dueOf(*sent)
		if due >= until || c.now() >= until {
			return nil // a saturated generator drops its backlog at the phase end
		}
		*batch++
		args = args[:0]
		for i := 0; i < f.cfg.Batch; i++ {
			args = f.rowArgs(args, f.next+int64(i), int64(due))
		}
		if err := exec('i', due, f.insertSQL, args...); err != nil {
			return err
		}
		f.next += int64(f.cfg.Batch)
		*sent += int64(f.cfg.Batch)
		ph.events += int64(f.cfg.Batch)
		if *batch%int64(f.cfg.UpdateEvery) == 0 {
			if id := f.pickLive(); id != 0 {
				d := dueOf(*sent)
				if err := exec('u', d, fhUpdateSQL, types.NewInt(f.rng.Int63n(1000)), types.NewInt(int64(d)), types.NewInt(id)); err != nil {
					return err
				}
				*sent++
				ph.events++
			}
		}
		if *batch%int64(f.cfg.DeleteEvery) == 0 {
			if id := f.pickLive(); id != 0 {
				if err := exec('d', dueOf(*sent), fhDeleteSQL, types.NewInt(id)); err != nil {
					return err
				}
				f.deleted[id] = true
				*sent++
				ph.events++
			}
		}
		// Retention keeps the live table at cfg.Live rows.
		args = args[:0]
		for i := 0; i < f.cfg.Batch; i++ {
			args = append(args, types.NewInt(f.oldest))
			delete(f.deleted, f.oldest)
			f.oldest++
		}
		if err := exec('r', due, f.retireSQL, args...); err != nil {
			return err
		}
		if *batch%int64(f.cfg.MaintEvery) == 0 {
			m.Kick()
		}
	}
}

// check quiesces the reactive queues and compares both views with a
// full recompute; it also requires the handler to have received the
// last batch.
func (f *firehose) check(lastDue time.Duration) error {
	f.router.Quiesce()
	for _, pair := range [][3]string{
		{"fh_totals", "SELECT entity, n, s FROM fh_totals", "SELECT entity, COUNT(*), SUM(v) FROM fh_edits GROUP BY entity"},
		{"fh_hot", "SELECT id, entity, v FROM fh_hot", "SELECT id, entity, v FROM fh_edits WHERE v >= 900"},
	} {
		got, err := f.db.Query(pair[1])
		if err != nil {
			return err
		}
		want, err := f.db.Query(pair[2])
		if err != nil {
			return err
		}
		if multisetKey(got.Rows) != multisetKey(want.Rows) {
			return fmt.Errorf("view %s (%d rows) differs from its recompute (%d rows)", pair[0], len(got.Rows), len(want.Rows))
		}
	}
	var seen time.Duration = -1
	for _, d := range f.sink.deliveries() {
		seen = max(seen, d.due)
	}
	if lastDue > 0 && seen < lastDue {
		return fmt.Errorf("handler never received the batch due at %s", lastDue)
	}
	n, err := f.db.QueryInt("SELECT COUNT(*) FROM fh_edits")
	if err != nil {
		return err
	}
	if want := f.next - f.oldest - int64(len(f.deleted)); n != want {
		return fmt.Errorf("fh_edits holds %d rows, want %d", n, want)
	}
	return nil
}

func multisetKey(rows []types.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = types.RowKey(r)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// fhStats turns a phase's statements and the deliveries whose rows were
// due inside it into latency series.
type fhStats struct {
	latency, write, lag, insertExec, retireExec, queueWait Samples
}

func firehoseStats(ph *fhPhase, ds []delivery) *fhStats {
	st := &fhStats{}
	execAt := map[time.Duration]time.Duration{}
	for _, s := range ph.stmts {
		switch s.kind {
		case 'i':
			st.lag.Add(s.sent - s.due)
			st.write.Add(s.at - s.due)
			st.insertExec.Add(s.at - s.sent)
			execAt[s.due] = s.at
		case 'u':
			execAt[s.due] = s.at
		case 'r':
			st.retireExec.Add(s.at - s.sent)
		}
	}
	for _, d := range ds {
		if d.due < ph.from || d.due >= ph.to {
			continue
		}
		st.latency.Add(d.at - d.due)
		if at, ok := execAt[d.due]; ok {
			// Negative when the worker delivered before Exec returned.
			st.queueWait.Add(d.at - at)
		}
	}
	return st
}

// firehoseTrace builds the spans of a traced phase: one root per delta,
// from its rows' due time to handler receipt, with the statement that
// produced it as a child; statements whose delta carried nothing due
// (deletes, retention) are roots of their own. Spans of one batch share
// its op id.
func firehoseTrace(ph *fhPhase, ds []delivery) *Tracer {
	names := map[byte]string{'i': "engine.insert_batch", 'u': "engine.update", 'd': "engine.delete", 'r': "engine.retention_delete"}
	byDue := map[time.Duration]stmt{}
	tr := &Tracer{}
	for _, s := range ph.stmts {
		if s.kind == 'i' || s.kind == 'u' {
			byDue[s.due] = s
		} else {
			tr.Record(names[s.kind], s.op, 0, s.sent, s.at)
		}
	}
	for _, d := range ds {
		s, ok := byDue[d.due]
		if !ok {
			continue
		}
		root := tr.Record("firehose.delivery", s.op, 0, d.due, d.at)
		tr.Record(names[s.kind], s.op, root, s.sent, s.at)
	}
	return tr
}

func runFirehose(cfg firehoseConfig, o runOpts) (*report, error) {
	r := newReport()
	c := newClock()
	f, setupS, err := repeatSetup(o, func(dir string) (*firehose, error) { return setupFirehose(dir, cfg, o.seed, c) }, (*firehose).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	r.e2e["setup_s"] = setupS
	r.notef("firehose: %d events/s in %d-row INSERT batches, live window %d rows, update every %d, delete every %d batches, maintenance every %d batches, coalesce policy",
		cfg.Rate, cfg.Batch, cfg.Live, cfg.UpdateEvery, cfg.DeleteEvery, cfg.MaintEvery)

	m := newMaint(c, func() error { _, err := f.notifier.Purge(); return err }, f.db.Checkpoint)
	m.Start()
	p := makePlan(o.seconds, o.trace)
	start := c.now()
	var sent, batch int64
	phase := func(dur time.Duration, traced bool) (*fhPhase, layerInputs, error) {
		ph := &fhPhase{from: c.now()}
		in := layerInputs{db0: snapRegistry(f.db.Metrics()), maint: m, from: ph.from}
		rt := startRuntime()
		err := f.generate(c, m, traced, start, &sent, &batch, ph.from+dur, ph)
		rt.stop(&in)
		ph.to = c.now()
		in.to, in.db1 = ph.to, snapRegistry(f.db.Metrics())
		in.parse = &ph.parse
		for _, s := range ph.stmts {
			if s.kind == 'i' {
				in.ops++
				in.opWindows = append(in.opWindows, interval{s.due, s.at})
			}
		}
		return ph, in, err
	}
	if _, _, err := phase(p.warmup, false); err != nil {
		m.Stop()
		return nil, err
	}
	var calib, final *fhPhase
	var in layerInputs
	if p.traced {
		if calib, _, err = phase(p.calib, false); err == nil {
			final, in, err = phase(p.measure, true)
		}
	} else {
		final, in, err = phase(p.measure, false)
	}
	if err != nil {
		m.Stop()
		return nil, err
	}
	if err := m.Stop(); err != nil {
		return nil, fmt.Errorf("firehose maintenance: %w", err)
	}
	var lastDue time.Duration
	for _, s := range final.stmts {
		if s.kind == 'i' {
			lastDue = s.due
		}
	}
	checkErr := f.check(lastDue) // quiesces: every delivery has arrived
	if err := f.stopWatcher(); err != nil {
		return nil, fmt.Errorf("firehose watcher: %w", err)
	}
	ds := f.sink.deliveries()
	st := firehoseStats(final, ds)
	elapsed := final.to - final.from

	r.e2e["live_heap_mb"] = liveHeapMB()
	r.e2e["latency_p50_ms"] = st.latency.Quantile(0.5)
	r.e2e["latency_tail_ms"] = st.latency.Quantile(0.99)
	r.e2e["write_p50_ms"] = st.write.Quantile(0.5)
	r.e2e["throughput_per_s"] = ratio(float64(final.events), elapsed.Seconds())
	r.timing("due → delivery (latency_p50_ms, latency_tail_ms = p99)", &st.latency, 0.5, 0.99)
	r.timing("insert batch, due → Exec return (write_p50_ms)", &st.write, 0.5, 0.99)
	r.timing("generator lag", &st.lag, 0.5, 0.99)
	phaseNotes(r, in)
	r.notef("events sent %d in %.3fs (%.0f/s, target %d/s); deliveries %d; p99 has %d samples beyond it",
		final.events, elapsed.Seconds(), r.e2e["throughput_per_s"], cfg.Rate, st.latency.N(), beyond(st.latency.N(), 0.99))
	if p.traced {
		cst := firehoseStats(calib, ds)
		commonLayers(r, in)
		L := r.layer
		L["engine.insert_batch_ms"] = st.insertExec.Quantile(0.5)
		L["engine.retention_delete_ms"] = st.retireExec.Quantile(0.5)
		L["react.queue_wait_p50_ms"] = st.queueWait.Quantile(0.5)
		L["react.queue_wait_p99_ms"] = st.queueWait.Quantile(0.99)
		L["gen.lag_p99_ms"] = st.lag.Quantile(0.99)
		L["trace.overhead_pct"] = overheadPct(cst.latency.Quantile(0.5), st.latency.Quantile(0.5))
		r.timing("calibration due → delivery (untraced)", &cst.latency, 0.5, 0.99)
		r.timing("react queue wait (delivery − Exec return)", &st.queueWait, 0.5, 0.99)
		r.tracer = firehoseTrace(final, ds)
		r.attempted += calib.tally.Attempted()
		r.failed += calib.tally.Failed()
	}
	r.attempted += final.tally.Attempted() + 1
	r.failed += final.tally.Failed()
	if checkErr != nil {
		r.failed++
		r.checkf("firehose final check: %v", checkErr)
	}
	return r, nil
}
