package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"ediflow/internal/client"
	"ediflow/internal/database"
	"ediflow/internal/notify"
	"ediflow/internal/server"
	"ediflow/internal/sqltext"
	"ediflow/internal/tablesync"
	"ediflow/internal/types"
	"ediflow/internal/vis"
)

// fig8Config sizes the Figure-8 chain workload.
type fig8Config struct {
	Window     int           // authors kept live; the oldest Batch retire each cycle
	Batch      int           // authors inserted per cycle
	MaintEvery int           // cycles between purge + checkpoint rounds
	Deadline   time.Duration // a NOTIFY later than this fails the cycle
}

func defaultFig8() fig8Config {
	return fig8Config{Window: 20000, Batch: 10, MaintEvery: 300, Deadline: time.Second}
}

// fig8 is the §VII-C deployment: the DBMS on disk with fsync at every
// commit, machine 1 (an embedded notification client plus a
// visualization component) and a display whose mirror of
// ef_visual_attributes talks SQL to a loopback server.
type fig8 struct {
	cfg      fig8Config
	db       *database.DB
	notifier *notify.Notifier
	srv      *server.Server
	conn     *client.Conn
	m1       *notify.Client
	comp     *vis.Component
	mirror   *tablesync.Mirror
	rng      *rand.Rand

	// txnMu keeps maintenance writes out of the external transaction:
	// an engine transaction is engine-wide, so a purge DELETE issued
	// while it is open would join it.
	txnMu sync.Mutex

	tidToID      map[int64]int64 // machine 1's view of the live authors
	oldest, next int64           // live author ids are [oldest, next)
	insertSQL    string
	deleteSQL    string
}

func placeholders(rows, cols int) string {
	row := "(" + strings.TrimSuffix(strings.Repeat("?, ", cols), ", ") + ")"
	return strings.TrimSuffix(strings.Repeat(row+", ", rows), ", ")
}

func setupFig8(dir string, cfg fig8Config, seed int64) (f *fig8, err error) {
	db, err := database.OpenWith(dir, storeOptions())
	if err != nil {
		return nil, err
	}
	f = &fig8{cfg: cfg, db: db, rng: rand.New(rand.NewSource(seed)), tidToID: map[int64]int64{}}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	f.insertSQL = "INSERT INTO authors (id, name) VALUES " + placeholders(cfg.Batch, 2)
	f.deleteSQL = "DELETE FROM authors WHERE id IN (" + strings.TrimSuffix(strings.Repeat("?, ", cfg.Batch), ", ") + ")"
	if _, err = db.Exec("CREATE TABLE authors (id INT PRIMARY KEY, name STRING NOT NULL)"); err != nil {
		return f, err
	}
	v, err := vis.NewVisualization(db, "figure8")
	if err != nil {
		return f, err
	}
	if f.comp, err = v.AddComponent("graph", "node-link"); err != nil {
		return f, err
	}
	// Prefill the window so the timed phase starts at steady state.
	f.oldest, f.next = 1, 1
	for f.next <= int64(cfg.Window) {
		n := min(500, cfg.Window-int(f.next)+1)
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = f.next + int64(i)
		}
		if _, err = db.Exec("INSERT INTO authors (id, name) VALUES "+placeholders(n, 2), authorArgs(ids)...); err != nil {
			return f, err
		}
		if err = f.comp.InsertAttributes(f.attrs(ids)); err != nil {
			return f, err
		}
		f.next += int64(n)
	}
	if f.notifier, err = notify.NewNotifier(db); err != nil {
		return f, err
	}
	f.srv = server.New(db, server.Config{})
	if err = f.srv.Listen("127.0.0.1:0"); err != nil {
		return f, err
	}
	if f.conn, err = client.Dial(f.srv.Addr(), client.Options{}); err != nil {
		return f, err
	}
	if f.m1, err = notify.Connect(db, "machine1", "authors"); err != nil {
		return f, err
	}
	if f.mirror, err = tablesync.NewMirror(f.conn, "display", database.TableVisualAttributes); err != nil {
		return f, err
	}
	// Workaround for the open NOTIFY registration race: Connect returns
	// before the notifier has published the connection, and a commit in
	// that window loses its NOTIFY. Wait until both peers are live.
	if err = waitConnections(f.notifier, 2); err != nil {
		return f, err
	}
	res, err := db.Query("SELECT _tid, id FROM authors")
	if err != nil {
		return f, err
	}
	for _, r := range res.Rows {
		f.tidToID[r[0].Int()] = r[1].Int()
	}
	if len(f.tidToID) != cfg.Window || f.mirror.Len() != cfg.Window {
		return f, fmt.Errorf("fig8 setup: %d authors, mirror %d rows, want %d", len(f.tidToID), f.mirror.Len(), cfg.Window)
	}
	return f, nil
}

// waitConnections polls until the notifier holds n live connections.
func waitConnections(n *notify.Notifier, want int) error {
	deadline := time.Now().Add(5 * time.Second)
	for n.ConnectionCount() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("notifier has %d of %d peer connections after 5s", n.ConnectionCount(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (f *fig8) close() {
	if f.mirror != nil {
		f.mirror.Close()
	}
	if f.m1 != nil {
		f.m1.Close()
	}
	if f.conn != nil {
		f.conn.Close()
	}
	if f.srv != nil {
		f.srv.Close()
	}
	if f.notifier != nil {
		f.notifier.Close()
	}
	f.db.Close()
}

func authorArgs(ids []int64) []types.Value {
	args := make([]types.Value, 0, 2*len(ids))
	for _, id := range ids {
		args = append(args, types.NewInt(id), types.NewString("author-"+strconv.FormatInt(id, 10)))
	}
	return args
}

// attrs is machine 1's layout step: a position and label per author.
func (f *fig8) attrs(ids []int64) map[int64]vis.Attr {
	out := make(map[int64]vis.Attr, len(ids))
	for _, id := range ids {
		out[id] = vis.Attr{X: f.rng.Float64() * 100, Y: f.rng.Float64() * 100, Color: "#3366cc", Label: "a" + strconv.FormatInt(id, 10)}
	}
	return out
}

// cycleResult is one Figure-8 cycle as the benchmark saw it.
type cycleResult struct {
	total, extTxn time.Duration
	window        interval
	missed        bool     // a NOTIFY missed its deadline (recovered)
	checkErr      string   // the cycle's output was wrong
	texts         []string // SQL texts the benchmark issued, for parse timing
}

// errNotifyLost aborts the run when a cycle cannot recover even by
// reading past last_seq.
var errNotifyLost = errors.New("fig8: changes never reached the peer")

// waitNotify returns when a NOTIFY newer than floor arrives, or reports
// a miss after the deadline.
func waitNotify(ch <-chan notify.Message, floor int64, deadline time.Duration) (missed bool) {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		select {
		case m := <-ch:
			if m.Seq > floor {
				return false
			}
		case <-timer.C:
			return true
		}
	}
}

// cycle runs one closed-loop Figure-8 cycle: external transaction →
// machine 1 (NOTIFY, pending read, _tid lookup, visual-attribute
// writes, ack) → display (NOTIFY, mirror refresh until it reflects the
// cycle). With tr set, each step is a span under one root.
func (f *fig8) cycle(c clock, tr *Tracer, op int64) (cycleResult, error) {
	var res cycleResult
	var steps []Span
	step := func(name string, start, end time.Duration) {
		if tr != nil {
			steps = append(steps, Span{Name: name, Start: int64(start), End: int64(end)})
		}
	}
	B := f.cfg.Batch

	// The external update: B new authors, and once the window is full
	// the B oldest retire, in one transaction.
	t0 := c.now()
	ids := make([]int64, B)
	for i := range ids {
		ids[i] = f.next + int64(i)
	}
	retire := f.next-f.oldest >= int64(f.cfg.Window)
	var retireArgs []types.Value
	if retire {
		for i := 0; i < B; i++ {
			retireArgs = append(retireArgs, types.NewInt(f.oldest+int64(i)))
		}
	}
	if err := f.extTxn(authorArgs(ids), retireArgs); err != nil {
		return res, err
	}
	f.next += int64(B)
	if retire {
		f.oldest += int64(B)
	}
	res.texts = append(res.texts, f.insertSQL)
	if retire {
		res.texts = append(res.texts, f.deleteSQL)
	}
	t1 := c.now()
	res.extTxn = t1 - t0
	step("engine.ext_txn", t0, t1)

	// Machine 1: NOTIFY, then read everything past last_seq. A missed
	// NOTIFY fails the cycle, which recovers through the pending read.
	var msgs []notify.Message
	var tidLists [][]int64
	wantMsgs := 1
	if retire {
		wantMsgs = 2
	}
	for tries := 0; len(msgs) < wantMsgs; tries++ {
		if tries == 10 {
			return res, fmt.Errorf("%w: machine 1 saw %d of %d notifications", errNotifyLost, len(msgs), wantMsgs)
		}
		h := c.now()
		if waitNotify(f.m1.C, f.m1.LastSeq(), f.cfg.Deadline) {
			res.missed = true
		}
		p := c.now()
		step("notify.hop1", h, p)
		var err error
		if msgs, tidLists, err = f.m1.PendingNotifications(); err != nil {
			return res, err
		}
		step("notify.pending", p, c.now())
	}
	t2 := c.now()
	var insTIDs, delTIDs []int64
	var lastSeq int64
	for i, m := range msgs {
		switch m.Op {
		case "INSERT":
			insTIDs = append(insTIDs, tidLists[i]...)
		case "DELETE":
			delTIDs = append(delTIDs, tidLists[i]...)
		}
		lastSeq = max(lastSeq, m.Seq)
	}
	lookup := tidLookupSQL(insTIDs)
	res.texts = append(res.texts, lookup)
	rows, err := f.db.Query(lookup)
	if err != nil {
		return res, err
	}
	t3 := c.now()
	step("engine.tid_lookup", t2, t3)
	newIDs := make([]int64, 0, len(rows.Rows))
	for _, r := range rows.Rows {
		f.tidToID[r[1].Int()] = r[0].Int()
		newIDs = append(newIDs, r[0].Int())
	}
	retired := make([]int64, 0, len(delTIDs))
	for _, tid := range delTIDs {
		if id, ok := f.tidToID[tid]; ok {
			retired = append(retired, id)
			delete(f.tidToID, tid)
		}
	}
	if len(newIDs) != B || (retire && len(retired) != B) {
		res.checkErr = fmt.Sprintf("machine 1 saw %d new and %d retired authors, want %d each", len(newIDs), len(retired), B)
	}
	t4 := c.now()
	if err := f.comp.InsertAttributes(f.attrs(newIDs)); err != nil {
		return res, err
	}
	if err := f.comp.DeleteAttributes(retired); err != nil {
		return res, err
	}
	t5 := c.now()
	step("vis.write", t4, t5)
	if err := f.m1.Ack(lastSeq); err != nil {
		return res, err
	}
	t6 := c.now()
	step("notify.ack", t5, t6)

	// The display: one notification per vis statement — the bulk insert
	// plus one DELETE per retired object — must reach the mirror.
	need := 0
	if len(newIDs) > 0 {
		need++
	}
	need += len(retired)
	for processed, tries := 0, 0; processed < need; tries++ {
		if tries == 10 {
			return res, fmt.Errorf("%w: display applied %d of %d notifications", errNotifyLost, processed, need)
		}
		h := c.now()
		if waitNotify(f.mirror.Notifications(), lastSeq, f.cfg.Deadline) {
			res.missed = true
		}
		r := c.now()
		step("notify.hop2", h, r)
		n, err := f.mirror.Refresh()
		if err != nil {
			return res, err
		}
		processed += n
		step("tablesync.refresh", r, c.now())
		if processed > need {
			res.checkErr = fmt.Sprintf("display applied %d notifications, want %d", processed, need)
		}
	}
	end := c.now()
	if f.mirror.Len() != int(f.next-f.oldest) {
		res.checkErr = fmt.Sprintf("display holds %d objects, want %d", f.mirror.Len(), f.next-f.oldest)
	}
	res.total = end - t0
	res.window = interval{t0, end}
	if tr != nil {
		root := tr.Record("fig8.cycle", op, 0, t0, end)
		for _, s := range steps {
			tr.Record(s.Name, op, root, time.Duration(s.Start), time.Duration(s.End))
		}
	}
	return res, nil
}

// extTxn issues the external transaction.
func (f *fig8) extTxn(insArgs, delArgs []types.Value) error {
	f.txnMu.Lock()
	defer f.txnMu.Unlock()
	if _, err := f.db.Exec("BEGIN"); err != nil {
		return err
	}
	_, err := f.db.Exec(f.insertSQL, insArgs...)
	if err == nil && delArgs != nil {
		_, err = f.db.Exec(f.deleteSQL, delArgs...)
	}
	if err != nil {
		if _, rerr := f.db.Exec("ROLLBACK"); rerr != nil {
			return fmt.Errorf("%v (rollback: %w)", err, rerr)
		}
		return err
	}
	_, err = f.db.Exec("COMMIT")
	return err
}

func tidLookupSQL(tids []int64) string {
	var sb strings.Builder
	sb.WriteString("SELECT id, _tid FROM authors WHERE _tid IN (")
	for i, t := range tids {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatInt(t, 10))
	}
	sb.WriteString(")")
	return sb.String()
}

// maintenance is ediserver's purge + checkpoint, kept out of the
// external transaction.
func (f *fig8) maintenance(c clock) *maint {
	return newMaint(c,
		func() error {
			f.txnMu.Lock()
			defer f.txnMu.Unlock()
			_, err := f.notifier.Purge()
			return err
		},
		func() error {
			f.txnMu.Lock()
			defer f.txnMu.Unlock()
			return f.db.Checkpoint()
		})
}

// check compares the display with the database at the end of the run:
// the mirror must equal ef_visual_attributes for the component, and the
// component must hold exactly the live window of authors.
func (f *fig8) check() error {
	if _, err := f.mirror.Refresh(); err != nil {
		return err
	}
	res, err := f.db.Query("SELECT *, _tid FROM "+database.TableVisualAttributes+" WHERE comp_id = ?", types.NewInt(f.comp.ID))
	if err != nil {
		return err
	}
	snap := f.mirror.Snapshot()
	if len(snap) != len(res.Rows) {
		return fmt.Errorf("mirror holds %d rows, table %d", len(snap), len(res.Rows))
	}
	byTID := make(map[int64]types.Row, len(snap))
	for _, r := range snap {
		byTID[r.TID] = r.Values
	}
	objCol := f.mirror.ColIndex("obj_id")
	seen := map[int64]bool{}
	for _, r := range res.Rows {
		tid := r[len(r)-1].Int()
		m, ok := byTID[tid]
		if !ok || types.RowKey(m) != types.RowKey(r[:len(r)-1]) {
			return fmt.Errorf("mirror row for tid %d differs from the table", tid)
		}
		seen[m[objCol].Int()] = true
	}
	if len(seen) != int(f.next-f.oldest) {
		return fmt.Errorf("component holds %d objects, want the %d-author window", len(seen), f.next-f.oldest)
	}
	for id := f.oldest; id < f.next; id++ {
		if !seen[id] {
			return fmt.Errorf("author %d of the live window is missing from the display", id)
		}
	}
	n, err := f.db.QueryInt("SELECT COUNT(*) FROM authors WHERE id >= ? AND id < ?", types.NewInt(f.oldest), types.NewInt(f.next))
	if err != nil {
		return err
	}
	if total, err := f.db.QueryInt("SELECT COUNT(*) FROM authors"); err != nil || total != n || n != f.next-f.oldest {
		return fmt.Errorf("authors table holds %d rows (%d in window), want %d (%v)", total, n, f.next-f.oldest, err)
	}
	return nil
}

// fig8Phase accumulates one measured phase.
type fig8Phase struct {
	cycles, ext, parse Samples
	windows            []interval
	tally              Tally
	missed             int
	checkErrs          []string
	elapsed            time.Duration
}

func (f *fig8) runPhase(c clock, m *maint, tr *Tracer, until time.Duration, op *int64, ph *fig8Phase) error {
	for c.now() < until {
		*op++
		res, err := f.cycle(c, tr, *op)
		if err != nil {
			return err
		}
		failed := res.missed || res.checkErr != ""
		ph.tally.Op(failed)
		if res.missed {
			ph.missed++
		}
		if res.checkErr != "" && len(ph.checkErrs) < 5 {
			ph.checkErrs = append(ph.checkErrs, res.checkErr)
		}
		ph.cycles.Add(res.total)
		ph.ext.Add(res.extTxn)
		ph.windows = append(ph.windows, res.window)
		if tr != nil {
			for _, text := range res.texts {
				s := time.Now()
				if _, err := sqltext.Parse(text); err != nil {
					return err
				}
				ph.parse.Add(time.Since(s))
			}
		}
		if *op%int64(f.cfg.MaintEvery) == 0 {
			m.Kick()
		}
	}
	return nil
}

// runFig8 sets the chain up (setups times, keeping the last), warms
// it, and measures it.
func runFig8(cfg fig8Config, o runOpts) (*report, error) {
	r := newReport()
	f, setupS, err := repeatSetup(o, func(dir string) (*fig8, error) { return setupFig8(dir, cfg, o.seed) }, (*fig8).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	r.e2e["setup_s"] = setupS
	r.notef("fig8_chain: window %d authors, %d per cycle, maintenance every %d cycles, NOTIFY deadline %s",
		cfg.Window, cfg.Batch, cfg.MaintEvery, cfg.Deadline)

	c := newClock()
	m := f.maintenance(c)
	m.Start()
	p := makePlan(o.seconds, o.trace)
	var op int64
	warm := &fig8Phase{}
	if err := f.runPhase(c, m, nil, c.now()+p.warmup, &op, warm); err != nil {
		m.Stop()
		return nil, err
	}

	measure := func(dur time.Duration, tr *Tracer) (*fig8Phase, layerInputs, error) {
		ph := &fig8Phase{}
		in := layerInputs{db0: snapRegistry(f.db.Metrics()), cl0: snapRegistry(f.conn.Metrics()), maint: m, from: c.now()}
		rt := startRuntime()
		err := f.runPhase(c, m, tr, in.from+dur, &op, ph)
		rt.stop(&in)
		in.to = c.now()
		ph.elapsed = in.to - in.from
		in.db1, in.cl1 = snapRegistry(f.db.Metrics()), snapRegistry(f.conn.Metrics())
		in.ops, in.opWindows, in.parse = len(ph.windows), ph.windows, &ph.parse
		return ph, in, err
	}
	var final *fig8Phase
	if p.traced {
		calib, _, err := measure(p.calib, nil)
		if err != nil {
			m.Stop()
			return nil, err
		}
		tr := &Tracer{}
		ph, in, err := measure(p.measure, tr)
		if err != nil {
			m.Stop()
			return nil, err
		}
		final = ph
		r.tracer = tr
		commonLayers(r, in)
		phaseNotes(r, in)
		L := r.layer
		L["engine.ext_txn_ms"] = tr.Durations("engine.ext_txn").Quantile(0.5)
		L["engine.tid_lookup_ms"] = tr.Durations("engine.tid_lookup").Quantile(0.5)
		L["notify.hop1_ms"] = tr.Durations("notify.hop1").Quantile(0.5)
		L["notify.hop2_ms"] = tr.Durations("notify.hop2").Quantile(0.5)
		L["notify.pending_ms"] = tr.Durations("notify.pending").Quantile(0.5)
		L["notify.ack_ms"] = tr.Durations("notify.ack").Quantile(0.5)
		L["vis.write_ms"] = tr.Durations("vis.write").Quantile(0.5)
		L["tablesync.refresh_ms"] = tr.Durations("tablesync.refresh").Quantile(0.5)
		L["trace.overhead_pct"] = overheadPct(calib.cycles.Quantile(0.5), ph.cycles.Quantile(0.5))
		cov := tr.Coverage("fig8.cycle")
		L["trace.unaccounted_pct"] = (1 - cov) * 100
		r.timing("calibration cycle (untraced)", &calib.cycles, 0.5, 0.99)
		r.timing("traced cycle", &ph.cycles, 0.5, 0.99)
		self := tr.SelfTimes()
		for _, name := range sortedKeys(self) {
			r.notef("self time %-20s %10.3fms/cycle", name, ratio(float64(self[name])/1e6, float64(len(ph.windows))))
		}
		// The ROADMAP gate: the critical-path spans must account for
		// the cycle's measured time to within 5%.
		if cov < 0.95 {
			r.checkf("fig8 trace: critical-path spans cover %.1f%% of cycle time, want >= 95%%", cov*100)
		}
		r.attempted += calib.tally.Attempted()
		r.failed += calib.tally.Failed()
		r.checkErrs = append(r.checkErrs, calib.checkErrs...)
	} else {
		ph, in, err := measure(p.measure, nil)
		if err != nil {
			m.Stop()
			return nil, err
		}
		final = ph
		phaseNotes(r, in)
	}
	if err := m.Stop(); err != nil {
		return nil, fmt.Errorf("fig8 maintenance: %w", err)
	}
	r.e2e["live_heap_mb"] = liveHeapMB()
	r.e2e["latency_p50_ms"] = final.cycles.Quantile(0.5)
	r.e2e["latency_tail_ms"] = final.cycles.Quantile(0.99)
	r.e2e["write_p50_ms"] = final.ext.Quantile(0.5)
	r.e2e["throughput_per_s"] = ratio(float64(final.cycles.N()), final.elapsed.Seconds())
	r.timing("chain (latency_p50_ms, latency_tail_ms = p99)", &final.cycles, 0.5, 0.95, 0.99)
	r.timing("external txn (write_p50_ms)", &final.ext, 0.5, 0.99)
	r.notef("cycles: %d, NOTIFY deadline misses: %d, p99 has %d samples beyond it", final.cycles.N(), final.missed, beyond(final.cycles.N(), 0.99))
	r.attempted += final.tally.Attempted()
	r.failed += final.tally.Failed()
	r.checkErrs = append(r.checkErrs, final.checkErrs...)
	r.attempted++
	if err := f.check(); err != nil {
		r.failed++
		r.checkf("fig8 final check: %v", err)
	}
	return r, nil
}
