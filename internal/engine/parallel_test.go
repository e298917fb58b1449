package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ediflow/internal/types"
)

// forceParallel shrinks the morsel size (and with it the two-morsel
// fan-out threshold) so even tiny test tables fan out, and restores it
// on cleanup. Returns the engine configured for width workers.
func forceParallel(t testing.TB, e *Engine, width, slotsPerMorsel int) {
	t.Helper()
	old := morselSlots
	morselSlots = slotsPerMorsel
	t.Cleanup(func() { morselSlots = old })
	e.SetParallelism(width)
}

// execSerialParallel runs sql serially and with parallelism forced on,
// requiring byte-identical behavior: same error presence and text, same
// rows in order (kind + rendering), and the same rows-scanned tally.
func execSerialParallel(t *testing.T, e *Engine, width int, sql string, args ...types.Value) {
	t.Helper()
	e.SetParallelism(1)
	s0 := e.mRowsScanned.Value()
	sres, serr := e.Exec(sql, args...)
	sScan := e.mRowsScanned.Value() - s0

	e.SetParallelism(width)
	p0 := e.mRowsScanned.Value()
	pres, perr := e.Exec(sql, args...)
	pScan := e.mRowsScanned.Value() - p0
	e.SetParallelism(1)

	if (serr == nil) != (perr == nil) {
		t.Fatalf("%s: error divergence\nserial:   %v\nparallel: %v", sql, serr, perr)
	}
	if serr != nil {
		if serr.Error() != perr.Error() {
			t.Fatalf("%s: error text divergence\nserial:   %v\nparallel: %v", sql, serr, perr)
		}
		return
	}
	if sScan != pScan {
		t.Fatalf("%s: rows_scanned divergence: serial %d, parallel %d", sql, sScan, pScan)
	}
	if len(sres.Rows) != len(pres.Rows) {
		t.Fatalf("%s: row count divergence: serial %d, parallel %d", sql, len(sres.Rows), len(pres.Rows))
	}
	for i := range sres.Rows {
		if len(sres.Rows[i]) != len(pres.Rows[i]) {
			t.Fatalf("%s row %d: width divergence", sql, i)
		}
		for j := range sres.Rows[i] {
			sv, pv := sres.Rows[i][j], pres.Rows[i][j]
			if sv.Kind() != pv.Kind() || sv.String() != pv.String() {
				t.Fatalf("%s row %d col %d: serial %s(%s), parallel %s(%s)",
					sql, i, j, sv.Kind(), sv.String(), pv.Kind(), pv.String())
			}
		}
	}
}

// newParTestDB seeds a table big enough to split into many morsels
// under the shrunken test morsel size: mixed kinds, NULL stripes,
// strings containing LIKE metacharacters, and a small side table for
// joins.
func newParTestDB(t testing.TB, rows int) *Engine {
	t.Helper()
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE p (id INT PRIMARY KEY, v INT, w FLOAT, s STRING, b BOOL)")
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO p (id, v, w, s, b) VALUES ")
		} else {
			sb.WriteString(", ")
		}
		v := fmt.Sprintf("%d", (i*7919)%1000)
		if i%23 == 0 {
			v = "NULL"
		}
		w := fmt.Sprintf("%d.%02d", i%50, i%97)
		if i%31 == 0 {
			w = "NULL"
		}
		s := fmt.Sprintf("'str_%d'", i%211)
		switch i % 13 {
		case 0:
			s = "NULL"
		case 1:
			s = fmt.Sprintf("'a%%b_%d'", i%7) // literal % and _ in data
		case 2:
			s = "''"
		}
		b := "TRUE"
		if i%3 == 1 {
			b = "FALSE"
		} else if i%29 == 0 {
			b = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %s, %s, %s, %s)", i, v, w, s, b)
		if (i+1)%200 == 0 || i == rows-1 {
			mustExec(t, e, sb.String())
			sb.Reset()
		}
	}
	mustExec(t, e, "CREATE TABLE dim (k INT PRIMARY KEY, label STRING)")
	for k := 0; k < 7; k++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO dim (k, label) VALUES (%d, 'g%d')", k, k))
	}
	return e
}

// TestParallelDifferential: every hot shape — filtered scans with and
// without projection pushdown, aggregation (plain, grouped, DISTINCT,
// HAVING), hash joins, LIKE specializations, ORDER BY over parallel
// scans, and error statements — must behave byte-identically to serial
// execution, including the rows_scanned tally.
func TestParallelDifferential(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	stmts := []string{
		// Filtered scans with projection pushdown (bare and computed).
		"SELECT id FROM p WHERE v > 500",
		"SELECT id, v, w FROM p WHERE (v * 3 + id) % 7 = 0",
		"SELECT id * 2 + v FROM p WHERE v < 100 AND b",
		"SELECT id FROM p WHERE v IS NULL",
		"SELECT id FROM p WHERE s IS NOT NULL AND v >= 0 LIMIT 17",
		"SELECT DISTINCT v FROM p WHERE v < 50",
		// Full-width rows (no pushdown: ORDER BY needs source rows).
		"SELECT id, s FROM p WHERE v > 900 ORDER BY s, id DESC LIMIT 25",
		"SELECT * FROM p WHERE w > 40.0 ORDER BY id LIMIT 10",
		// LIKE specializations (prefix/suffix/contains/exact) over data
		// holding literal % and _ characters, plus the generic matcher.
		"SELECT id FROM p WHERE s LIKE 'a%'",
		"SELECT id FROM p WHERE s LIKE '%_3'",
		"SELECT id FROM p WHERE s LIKE '%b_%'",
		"SELECT id FROM p WHERE s LIKE 'a%b_3'",
		"SELECT id FROM p WHERE s LIKE 'str_1'",
		"SELECT id FROM p WHERE s NOT LIKE 'str%'",
		"SELECT id FROM p WHERE s LIKE '%'",
		// Aggregation: column-native folds, grouped and global.
		"SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM p",
		"SELECT SUM(w), AVG(w), MIN(w), MAX(w) FROM p WHERE v > 250",
		"SELECT MIN(s), MAX(s), COUNT(s) FROM p",
		"SELECT v % 7, COUNT(*), SUM(id) FROM p WHERE v IS NOT NULL GROUP BY v % 7",
		"SELECT v % 10, AVG(v) FROM p GROUP BY v % 10 HAVING COUNT(*) > 100",
		"SELECT COUNT(DISTINCT v), SUM(DISTINCT v) FROM p",
		"SELECT b, MIN(w), MAX(id) FROM p GROUP BY b",
		"SELECT COUNT(*) FROM p WHERE s LIKE 'str%'",
		// DISTINCT folds: argument error, fold error, extrema, grouped,
		// a HAVING that rejects the only erroring group, and DISTINCT
		// beside merge-safe items.
		"SELECT SUM(DISTINCT 10 / v) FROM p",
		"SELECT SUM(DISTINCT s) FROM p",
		"SELECT MIN(DISTINCT s), MAX(DISTINCT v) FROM p",
		"SELECT s, COUNT(DISTINCT v), AVG(DISTINCT w) FROM p GROUP BY s",
		"SELECT v % 7, SUM(DISTINCT 10 / v) FROM p GROUP BY v % 7 HAVING MIN(v) > 0",
		"SELECT COUNT(DISTINCT v), SUM(v), COUNT(*), MAX(w) FROM p WHERE id > 10",
		// Joins: parallel partitioned build on the materialized side.
		"SELECT COUNT(*) FROM p JOIN dim ON p.v % 7 = dim.k",
		"SELECT dim.label, COUNT(*) FROM p JOIN dim ON p.v % 7 = dim.k GROUP BY dim.label",
		"SELECT p.id FROM p LEFT JOIN dim ON p.v % 7 = dim.k AND dim.k > 3 WHERE p.id < 40 ORDER BY p.id",
		// Subqueries: one result per statement, shared by every worker
		// of the scan, the key evaluation and the fold.
		"SELECT id FROM p WHERE v % 7 IN (SELECT k FROM dim) AND id % 3 = 0",
		"SELECT id, v + (SELECT MAX(k) FROM dim) FROM p WHERE v > 990",
		"SELECT v % 7 IN (SELECT k FROM dim WHERE k > 2), COUNT(*) FROM p GROUP BY v % 7 IN (SELECT k FROM dim WHERE k > 2)",
		"SELECT SUM(v * (SELECT COUNT(*) FROM dim)), MAX(w) FROM p",
		"SELECT id FROM p WHERE EXISTS (SELECT k FROM dim WHERE k > 100) OR v = 3",
		"SELECT id FROM p WHERE v > (SELECT nosuch FROM dim)",
		"SELECT id FROM p WHERE v IS NULL AND v IN (SELECT 1 / 0 FROM dim)",
		// Error statements: WHERE errors, projection errors, fold errors.
		"SELECT id FROM p WHERE v / (id - 1500) >= 0",
		"SELECT v / (id - 2999) FROM p WHERE v IS NOT NULL",
		"SELECT SUM(s) FROM p",
		"SELECT MIN(s), SUM(s) FROM p GROUP BY v % 3",
		"SELECT id FROM p WHERE v + s > 0",
	}
	for _, sql := range stmts {
		execSerialParallel(t, e, 4, sql)
	}
	// Same corpus at width 2 and 8 for morsel-boundary coverage.
	for _, w := range []int{2, 8} {
		execSerialParallel(t, e, w, "SELECT id, v FROM p WHERE (v * 3 + id) % 7 = 0")
		execSerialParallel(t, e, w, "SELECT COUNT(*), SUM(v), AVG(w), MIN(s), MAX(v) FROM p WHERE v % 7 != 0")
		execSerialParallel(t, e, w, "SELECT id FROM p WHERE v / (id - 1500) >= 0")
	}
}

// TestParallelTinyMorsels drives the differential corpus from the VM
// tests' table shape with pathologically small morsels (3 slots, so the
// 7-row table clears the two-morsel threshold), so every batch
// straddles morsel boundaries and the reorder buffer is exercised with
// single-batch morsels.
func TestParallelTinyMorsels(t *testing.T) {
	e := newVMTestDB(t)
	forceParallel(t, e, 4, 3)
	q0 := e.mParQueries.Value()
	stmts := []string{
		"SELECT id FROM v WHERE a > 0",
		"SELECT id, a + f FROM v WHERE a >= -1",
		"SELECT id FROM v WHERE s LIKE 'a%'",
		"SELECT id FROM v WHERE s LIKE '%eta'",
		"SELECT id FROM v WHERE s LIKE '_lpha'",
		"SELECT COUNT(*), SUM(a), AVG(f), MIN(s), MAX(s) FROM v",
		"SELECT b, COUNT(*) FROM v GROUP BY b",
		"SELECT id FROM v WHERE a + s > 0",
		"SELECT a + s FROM v WHERE id > 0",
	}
	for _, sql := range stmts {
		execSerialParallel(t, e, 4, sql)
	}
	if e.mParQueries.Value() == q0 {
		t.Fatal("no statement fanned out: the parallel side of every pair ran at width 1")
	}
}

// TestParallelMetrics: a fanned-out query must tick vm.parallel_queries,
// vm.morsels and vm.parallel_workers; a serial query must not.
func TestParallelMetrics(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	q0, m0, w0 := e.mParQueries.Value(), e.mParMorsels.Value(), e.mParWorkers.Value()
	mustExec(t, e, "SELECT id FROM p WHERE v > 500")
	if e.mParQueries.Value() != q0+1 {
		t.Fatalf("vm.parallel_queries: got %d, want %d", e.mParQueries.Value(), q0+1)
	}
	if e.mParMorsels.Value() <= m0 {
		t.Fatal("vm.morsels did not increase")
	}
	if got := e.mParWorkers.Value() - w0; got < 2 || got > 4 {
		t.Fatalf("vm.parallel_workers delta: got %d, want 2..4", got)
	}
	// Width 1 runs the same executor as one morsel on the caller: it
	// must tick none of the parallel counters.
	e.SetParallelism(1)
	q1, m1, w1 := e.mParQueries.Value(), e.mParMorsels.Value(), e.mParWorkers.Value()
	for _, sql := range []string{
		"SELECT id FROM p WHERE v > 500",
		"SELECT v % 7, COUNT(*), SUM(id) FROM p GROUP BY v % 7",
		"SELECT COUNT(*) FROM p JOIN dim ON p.v % 7 = dim.k",
	} {
		mustExec(t, e, sql)
	}
	if e.mParQueries.Value() != q1 {
		t.Fatal("serial query ticked vm.parallel_queries")
	}
	if e.mParMorsels.Value() != m1 {
		t.Fatal("serial query ticked vm.morsels")
	}
	if e.mParWorkers.Value() != w1 {
		t.Fatal("serial query ticked vm.parallel_workers")
	}
	res := mustExec(t, e, "SELECT count(*) FROM sys_metrics WHERE name LIKE 'vm.parallel%' OR name = 'vm.morsels'")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("sys_metrics parallel rows: got %d, want 3", res.Rows[0][0].Int())
	}
}

// TestParallelWorkerBudget: the worker pool is engine-wide — with the
// whole budget pinned by a fake reservation, scans degrade to serial
// rather than oversubscribing.
func TestParallelWorkerBudget(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	if got := e.reserveWorkers(3); got != 3 {
		t.Fatalf("reserveWorkers(3): got %d", got)
	}
	q0 := e.mParQueries.Value()
	mustExec(t, e, "SELECT id FROM p WHERE v > 500") // budget gone: serial
	if e.mParQueries.Value() != q0 {
		t.Fatal("scan went parallel with the worker budget exhausted")
	}
	e.releaseWorkers(3)
	mustExec(t, e, "SELECT id FROM p WHERE v > 500")
	if e.mParQueries.Value() != q0+1 {
		t.Fatal("scan stayed serial after the budget was released")
	}
	if e.parExtra.Load() != 0 {
		t.Fatalf("leaked worker reservations: %d", e.parExtra.Load())
	}
}

// TestExplainParallelMarker: EXPLAIN shows [parallel n=K] exactly when
// the table clears the threshold and parallelism is on.
func TestExplainParallelMarker(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	res := mustExec(t, e, "EXPLAIN SELECT id FROM p WHERE v > 500")
	out := planText(res)
	if !strings.Contains(out, "full-scan [compiled] [parallel n=4]") {
		t.Fatalf("missing parallel marker:\n%s", out)
	}
	e.SetParallelism(1)
	res = mustExec(t, e, "EXPLAIN SELECT id FROM p WHERE v > 500")
	if out = planText(res); strings.Contains(out, "[parallel") {
		t.Fatalf("parallel marker with parallelism=1:\n%s", out)
	}
	// Below two morsels (2 x 256 slots) the scan stays serial; at the
	// threshold it fans out.
	e.SetParallelism(4)
	mustExec(t, e, "CREATE TABLE q (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "INSERT INTO q SELECT id, v FROM p WHERE id < 511")
	res = mustExec(t, e, "EXPLAIN SELECT id FROM q WHERE v > 500")
	if out = planText(res); strings.Contains(out, "[parallel") {
		t.Fatalf("parallel marker below row threshold:\n%s", out)
	}
	mustExec(t, e, "INSERT INTO q SELECT id, v FROM p WHERE id = 511")
	res = mustExec(t, e, "EXPLAIN SELECT id FROM q WHERE v > 500")
	if out = planText(res); !strings.Contains(out, "[parallel n=2]") {
		t.Fatalf("missing parallel marker at the row threshold:\n%s", out)
	}
}

func planText(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(r[0].String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestParallelStress runs parallel SELECTs of every hot shape against
// concurrent writer churn and vacuum (checkpoint). Results cannot be
// compared to a serial baseline (the data moves), but every query must
// succeed and the race detector must stay quiet — the MVCC snapshot
// pins each scan to a consistent version set no matter how many
// workers walk it.
func TestParallelStress(t *testing.T) {
	e := newParTestDB(t, 3000)
	forceParallel(t, e, 4, 256)
	e.SetParallelism(4)
	stop := make(chan struct{})
	var churn, readers sync.WaitGroup

	churn.Add(1)
	go func() { // writer churn: inserts, updates, deletes
		defer churn.Done()
		i := 3000
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Exec(fmt.Sprintf("INSERT INTO p (id, v, w, s, b) VALUES (%d, %d, 1.5, 'churn_%d', TRUE)", i, i%1000, i%17))
			e.Exec(fmt.Sprintf("UPDATE p SET v = v + 1 WHERE id = %d", i-1000))
			e.Exec(fmt.Sprintf("DELETE FROM p WHERE id = %d", i-2000))
			i++
		}
	}()
	churn.Add(1)
	go func() { // vacuum churn
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil && err != ErrCheckpointTxnOpen {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	queries := []string{
		"SELECT id FROM p WHERE v > 500",
		"SELECT id, v * 2 FROM p WHERE (v + id) % 5 = 0",
		"SELECT COUNT(*), SUM(v), MIN(s), MAX(w) FROM p WHERE v IS NOT NULL",
		"SELECT v % 7, COUNT(*) FROM p GROUP BY v % 7",
		"SELECT COUNT(*) FROM p JOIN dim ON p.v % 7 = dim.k",
		"SELECT id FROM p WHERE s LIKE 'str%'",
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				q := queries[(i+seed)%len(queries)]
				if _, err := e.Exec(q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(r)
	}

	readers.Wait()
	close(stop)
	churn.Wait()
	if e.parExtra.Load() != 0 {
		t.Fatalf("leaked worker reservations: %d", e.parExtra.Load())
	}
}
