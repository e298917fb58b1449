package engine

import (
	"fmt"
	"strings"
	"testing"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// renderResult renders a statement outcome the way the golden tables
// record it: KIND(value) cells, rows joined by "; ", "ERR <text>" for an
// error and "affected <n>" for a mutation.
func renderResult(res *Result, err error) string {
	if err != nil {
		return "ERR " + err.Error()
	}
	if res.Rows == nil && res.Columns == nil {
		return fmt.Sprintf("affected %d", res.Affected)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = fmt.Sprintf("%s(%s)", v.Kind(), v.String())
		}
		rows[i] = strings.Join(cells, " ")
	}
	return strings.Join(rows, "; ")
}

// newVMTestDB seeds table v with mixed kinds, NULLs and LIKE
// metacharacters, plus an empty table z.
func newVMTestDB(t testing.TB) *Engine {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE v (id INT PRIMARY KEY, a INT, f FLOAT, s STRING, b BOOL)")
	mustExec(t, e, "CREATE TABLE z (id INT PRIMARY KEY, a INT, s STRING)")
	rows := []string{
		"(1, 10, 1.5, 'alpha', TRUE)",
		"(2, -3, 2.25, 'beta', FALSE)",
		"(3, NULL, NULL, NULL, NULL)",
		"(4, 0, 0.0, '', TRUE)",
		"(5, 7, -4.5, 'Alpha', FALSE)",
		"(6, 1000000, 3.0, 'a%b_c', TRUE)",
		"(7, -1, 0.5, 'beta', NULL)",
	}
	for _, r := range rows {
		mustExec(t, e, "INSERT INTO v (id, a, f, s, b) VALUES "+r)
	}
	return e
}

// atWidths runs fn serially and with a four-worker morsel fan-out
// forced on the tiny test tables.
func atWidths(t *testing.T, fn func(t *testing.T, e *Engine)) {
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			e := newVMTestDB(t)
			forceParallel(t, e, width, 2)
			fn(t, e)
		})
	}
}

// TestVMDifferentialStatements runs the catalog of full statements and
// requires the golden rows and error texts recorded while the
// tree-walk interpreter still ran beside the VM — including NULL
// three-valued logic, lane-held errors, type-coercion failures, and
// every shape lowering used to refuse: subqueries, unknown or
// ambiguous columns, unknown functions, HAVING, aggregates inside
// expressions, aggregates outside GROUP BY, and join residuals.
func TestVMDifferentialStatements(t *testing.T) {
	atWidths(t, func(t *testing.T, e *Engine) {
		for _, g := range vmGoldenStatements {
			if got := renderResult(e.Exec(g.sql)); got != g.want {
				t.Errorf("%s\n got: %s\nwant: %s", g.sql, got, g.want)
			}
		}
		for _, g := range vmGoldenParams {
			if got := renderResult(e.Exec(g.sql, g.args...)); got != g.want {
				t.Errorf("%s %v\n got: %s\nwant: %s", g.sql, g.args, got, g.want)
			}
		}
	})
}

// TestVMDifferentialUpdates covers the compiled UPDATE SET, INSERT
// VALUES and UPDATE/DELETE WHERE paths against golden outcomes and the
// golden final table.
func TestVMDifferentialUpdates(t *testing.T) {
	atWidths(t, func(t *testing.T, e *Engine) {
		for _, g := range vmGoldenUpdates {
			if got := renderResult(e.Exec(g.sql)); got != g.want {
				t.Errorf("%s\n got: %s\nwant: %s", g.sql, got, g.want)
			}
		}
		if got := renderResult(e.Exec("SELECT id, a, f, s, b FROM v ORDER BY id")); got != vmGoldenFinal {
			t.Errorf("final table\n got: %s\nwant: %s", got, vmGoldenFinal)
		}
	})
}

// scanRel materializes a table as a full-width relation (user columns,
// then _tid and _created), in scan order.
func scanRel(t testing.TB, e *Engine, table string) *relation {
	t.Helper()
	rel, _, err := e.buildTableRef(sqltext.TableRef{Table: table}, newBinder(e, nil, nil, &stmtCtx{snap: storage.SeqLatest}), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// laneOutcome renders one value or error for comparison.
func laneOutcome(v types.Value, err error) string {
	if err != nil {
		return "ERR " + err.Error()
	}
	return fmt.Sprintf("%s(%s)", v.Kind(), v.String())
}

// FuzzVMDifferential is the expression-level oracle: arbitrary
// expression text is compiled — vm.Compile must lower every parsed
// expression — and run over table v's rows, as a filter and as a
// projection, against the tree-walk reference evaluator. Kept rows,
// values and the first error (text included) must be identical. NOW()
// is excluded: it is the one non-deterministic builtin.
func FuzzVMDifferential(f *testing.F) {
	seeds := []string{
		"a > 0",
		"a * 2 + f",
		"a / (a - 7)",
		"s LIKE 'a%'",
		"a IN (10, NULL, 7)",
		"NOT (a > 0 OR b)",
		"CASE WHEN a > 0 THEN s ELSE 'x' END",
		"COALESCE(a, f, 0)",
		"a BETWEEN -1 AND f",
		"s || s = 'betabeta'",
		"UPPER(s) = 'ALPHA'",
		"a IS NULL AND b IS NOT NULL",
		"-a % 3",
		"IIF(b, a, f)",
		"SUBSTR(s, a, 2)",
		"a + s",
		"1 / 0",
		"a IN (SELECT a FROM v WHERE a > 5)",
		"a = (SELECT MAX(a) FROM v) OR NOT EXISTS (SELECT id FROM z)",
		"a > 0 AND nosuch = 1",
		"NOSUCHFN(a) OR b",
		"SUM(a) > 0",
		"v.a + x.a",
		"_tid > 3 AND a IN (?, 1)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	e := newVMTestDB(f)
	rel := scanRel(f, e, "v")
	newB := func() *binder { return newBinder(e, nil, nil, &stmtCtx{snap: storage.SeqLatest}) }
	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 200 || strings.Contains(strings.ToUpper(expr), "NOW") {
			t.Skip()
		}
		stmt, err := sqltext.Parse("SELECT " + expr)
		if err != nil {
			t.Skip()
		}
		sel, ok := stmt.(*sqltext.Select)
		if !ok || len(sel.Items) != 1 || sel.Items[0].Star || sel.From != nil {
			t.Skip()
		}
		x := sel.Items[0].Expr
		prog := vm.Compile(x, e.vmEnv(rel))
		if prog == nil {
			t.Fatalf("%s: vm.Compile returned no program", expr)
		}

		// As a filter: the kept row ids, or the first error.
		var got, want []string
		if sel, err := e.newRowFilter(prog, rel, newB()).filter(rel.rows); err != nil {
			got = []string{laneOutcome(types.Null, err)}
		} else {
			for _, i := range sel {
				got = append(got, rel.rows[i][0].String())
			}
		}
		ref := newRefEval(newB(), rel)
		for _, r := range rel.rows {
			ok, err := ref.evalBool(x, r)
			if err != nil {
				want = []string{laneOutcome(types.Null, err)}
				break
			}
			if ok {
				want = append(want, r[0].String())
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("WHERE %s\ncompiled:  %v\nreference: %v", expr, got, want)
		}

		// As a projection: every row's value, up to the first error.
		got, want = nil, nil
		_ = e.evalVecsRange([]*vm.Program{prog}, rel, newB(), 0, len(rel.rows), func(start, count int, vecs []*vm.Vec) error {
			for ri := 0; ri < count; ri++ {
				err := vecs[0].Err(ri)
				if err != nil {
					got = append(got, laneOutcome(types.Null, err))
					return err
				}
				got = append(got, laneOutcome(vecs[0].Value(ri), nil))
			}
			return nil
		})
		ref = newRefEval(newB(), rel)
		for _, r := range rel.rows {
			v, err := ref.eval(x, r)
			want = append(want, laneOutcome(v, err))
			if err != nil {
				break
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("SELECT %s\ncompiled:  %v\nreference: %v", expr, got, want)
		}
	})
}

// TestAggregateContextVsReference holds aggregate-context lowering —
// per-group result columns read by compiled programs — to the reference
// evaluator's evalAgg, group by group, over the shapes evalAgg supports
// (aggregates under arithmetic, unary and function calls, and plain
// columns read from the group's first row), on v grouped by b and on
// the empty table z as one implicit group.
func TestAggregateContextVsReference(t *testing.T) {
	e := newVMTestDB(t)
	check := func(table, groupBy string, exprs []string) {
		rel := scanRel(t, e, table)
		col, groups := -1, map[string]int{}
		var rows [][]types.Row
		if groupBy != "" {
			col, _ = newColIndex(rel.cols).resolve("", groupBy)
		}
		for _, r := range rel.rows {
			k := ""
			if col >= 0 {
				k = types.RowKey(types.Row{r[col]})
			}
			gi, ok := groups[k]
			if !ok {
				gi = len(rows)
				groups[k] = gi
				rows = append(rows, nil)
			}
			rows[gi] = append(rows[gi], r)
		}
		if col < 0 && len(rows) == 0 {
			rows = [][]types.Row{nil} // the implicit group of an empty table
		}
		for _, x := range exprs {
			sql := "SELECT " + x + " FROM " + table
			if groupBy != "" {
				sql += " GROUP BY " + groupBy
			}
			stmt, err := sqltext.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefEval(newBinder(e, nil, nil, &stmtCtx{snap: storage.SeqLatest}), rel)
			var want []string
			for _, g := range rows {
				v, err := ref.evalAgg(stmt.(*sqltext.Select).Items[0].Expr, g)
				if err != nil {
					want = []string{"ERR " + err.Error()}
					break
				}
				want = append(want, fmt.Sprintf("%s(%s)", v.Kind(), v.String()))
			}
			if got := renderResult(e.Exec(sql)); got != strings.Join(want, "; ") {
				t.Errorf("%s\n      got: %s\nreference: %s", sql, got, strings.Join(want, "; "))
			}
		}
	}
	check("v", "b", []string{
		"SUM(a)", "COUNT(*)", "COUNT(DISTINCT s)", "SUM(a) + 1", "MAX(f) - MIN(a)",
		"-SUM(a)", "ABS(MIN(a))", "AVG(f) * 2", "SUM(a) / COUNT(a)", "b", "a",
		"COALESCE(MAX(s), 'none')", "UPPER(MIN(s))", "SUM(10 / a)", "SUM(s)",
		"COUNT(*) + SUM(10 / a)", "MAX(a) % (MIN(a) - MIN(a))",
	})
	check("z", "", []string{"SUM(a)", "COUNT(*)", "SUM(a) + 1", "COALESCE(MAX(s), 'none')", "COUNT(*) + SUM(10 / a)"})
}

// TestOrderByAggregate: ORDER BY an aggregate sorts groups by the
// aggregate over the whole group. It used to evaluate the aggregate
// over each group's first row only, so SUM(v) ordered k = 2, 3, 1.
func TestOrderByAggregate(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE g (k INT, v INT)")
	mustExec(t, e, "INSERT INTO g (k, v) VALUES (1, 100), (1, -200), (2, 5), (2, 6), (3, 50), (3, 1), (3, 2)")
	for _, c := range []struct{ sql, want string }{
		// Sums: k=1 → -100, k=2 → 11, k=3 → 53.
		{"SELECT k, SUM(v) FROM g GROUP BY k ORDER BY SUM(v)", "INT(1) INT(-100); INT(2) INT(11); INT(3) INT(53)"},
		{"SELECT k FROM g GROUP BY k ORDER BY COUNT(*) DESC, k", "INT(3); INT(1); INT(2)"},
		{"SELECT k FROM g GROUP BY k ORDER BY MAX(v) - MIN(v)", "INT(2); INT(3); INT(1)"},
		{"SELECT k, SUM(v) FROM g GROUP BY k HAVING SUM(v) > 0 ORDER BY COUNT(*) DESC", "INT(3) INT(53); INT(2) INT(11)"},
		{"SELECT k, SUM(v) AS s FROM g GROUP BY k ORDER BY s", "INT(1) INT(-100); INT(2) INT(11); INT(3) INT(53)"},
	} {
		if got := renderResult(e.Exec(c.sql)); got != c.want {
			t.Errorf("%s\n got: %s\nwant: %s", c.sql, got, c.want)
		}
	}
}

// TestAggregatesUnderAnyOperator: in aggregate context every aggregate
// call reads its group's result, whatever operator it sits under. The
// reference evaluator only followed aggregates through arithmetic,
// unary and function-call nodes and raised "outside GROUP BY context"
// for the rest.
func TestAggregatesUnderAnyOperator(t *testing.T) {
	e := newVMTestDB(t)
	for _, c := range []struct{ sql, want string }{
		{"SELECT CASE WHEN SUM(a) > 0 THEN 'pos' ELSE 'neg' END FROM v", "STRING(pos)"},
		{"SELECT b, MAX(a) IS NULL, MIN(s) LIKE 'a%' FROM v GROUP BY b", "BOOL(true) BOOL(false) BOOL(false); BOOL(false) BOOL(false) BOOL(false); NULL(NULL) BOOL(false) BOOL(false)"},
		{"SELECT s FROM v GROUP BY s HAVING COUNT(*) IN (2, 3)", "STRING(beta)"},
	} {
		if got := renderResult(e.Exec(c.sql)); got != c.want {
			t.Errorf("%s\n got: %s\nwant: %s", c.sql, got, c.want)
		}
	}
}

// TestVMStaleProgramAfterDDL pins the regression from the issue: a
// compiled program captured against one table layout must never execute
// against a different one after DDL drops/recreates the table.
func TestVMStaleProgramAfterDDL(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE d (x INT, y INT, z INT)")
	mustExec(t, e, "INSERT INTO d (x, y, z) VALUES (1, 2, 3)")
	const q = "SELECT x FROM d WHERE y + z > 0"
	if res := mustExec(t, e, q); len(res.Rows) != 1 {
		t.Fatalf("warmup: want 1 row, got %d", len(res.Rows))
	}
	if e.progs.len() == 0 {
		t.Fatal("no compiled program cached after warmup")
	}
	// Recreate the table without z: the cached program's column slots
	// would read past the new row width if served stale.
	mustExec(t, e, "DROP TABLE d")
	if n := e.progs.len(); n != 0 {
		t.Fatalf("DDL did not purge compiled programs: %d entries", n)
	}
	mustExec(t, e, "CREATE TABLE d (x INT, y INT)")
	mustExec(t, e, "INSERT INTO d (x, y) VALUES (5, 6)")
	if _, err := e.Exec(q); err == nil {
		t.Fatal("query referencing dropped column z should now fail")
	}
	// And a layout-compatible query must run fresh, not stale.
	if res := mustExec(t, e, "SELECT x FROM d WHERE y > 0"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("post-DDL query wrong result: %v", res.Rows)
	}
}

// TestVMFunctionRegistryInvalidation: re-registering a scalar function
// must purge compiled programs, otherwise the old implementation stays
// baked into cached code.
func TestVMFunctionRegistryInvalidation(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE r (x INT)")
	mustExec(t, e, "INSERT INTO r (x) VALUES (10)")
	e.RegisterFunc("SCALE", func(args []types.Value) (types.Value, error) {
		n, err := args[0].AsInt()
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(2 * n), nil
	})
	const q = "SELECT SCALE(x) FROM r"
	if res := mustExec(t, e, q); res.Rows[0][0].Int() != 20 {
		t.Fatalf("first impl: got %v", res.Rows[0][0])
	}
	e.RegisterFunc("SCALE", func(args []types.Value) (types.Value, error) {
		n, err := args[0].AsInt()
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(3 * n), nil
	})
	if res := mustExec(t, e, q); res.Rows[0][0].Int() != 30 {
		t.Fatalf("re-registered impl not picked up: got %v (stale compiled program?)", res.Rows[0][0])
	}
	// The reference evaluator resolves UDFs the same way, and they
	// cannot shadow builtins.
	rel := scanRel(t, e, "r")
	ref := newRefEval(newBinder(e, nil, nil, &stmtCtx{snap: storage.SeqLatest}), rel)
	if v, err := ref.eval(&sqltext.FuncCall{Name: "SCALE", Args: []sqltext.Expr{&sqltext.ColumnRef{Column: "x"}}}, rel.rows[0]); err != nil || v.Int() != 30 {
		t.Fatalf("reference UDF: got %v, %v", v, err)
	}
	e.RegisterFunc("ABS", func([]types.Value) (types.Value, error) {
		return types.NewInt(-1), nil
	})
	if res := mustExec(t, e, "SELECT ABS(-5) FROM r"); res.Rows[0][0].Int() != 5 {
		t.Fatalf("builtin ABS shadowed: got %v", res.Rows[0][0])
	}
}

// TestVMBatchBoundaries sweeps result sizes around the batch constant —
// 0, 1, batch-1, batch, batch+1, 3*batch — against plain scans, LIMIT,
// and top-k. Catches off-by-one selection carryover at batch edges.
func TestVMBatchBoundaries(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE big (n INT, grp INT)")
	total := 3*vm.BatchSize + 17
	mustExec(t, e, "BEGIN")
	for i := 0; i < total; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO big (n, grp) VALUES (%d, %d)", i, i%10))
	}
	mustExec(t, e, "COMMIT")

	sizes := []int{0, 1, vm.BatchSize - 1, vm.BatchSize, vm.BatchSize + 1, 3 * vm.BatchSize}
	for _, want := range sizes {
		res := mustExec(t, e, fmt.Sprintf("SELECT n FROM big WHERE n < %d", want))
		if len(res.Rows) != want {
			t.Fatalf("size %d: got %d rows", want, len(res.Rows))
		}
		// LIMIT capping a larger compiled result to the boundary size.
		res = mustExec(t, e, fmt.Sprintf("SELECT n FROM big WHERE n >= 0 LIMIT %d", want))
		if len(res.Rows) != want {
			t.Fatalf("LIMIT %d: got %d rows", want, len(res.Rows))
		}
		// Top-k: ORDER BY with LIMIT over the compiled scan.
		res = mustExec(t, e, fmt.Sprintf("SELECT n FROM big ORDER BY n DESC LIMIT %d", want))
		if len(res.Rows) != want {
			t.Fatalf("top-k %d: got %d rows", want, len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i][0].Int() > res.Rows[i-1][0].Int() {
				t.Fatalf("top-k %d: not descending at %d", want, i)
			}
		}
	}
	// Batched grouping across chunk edges must match the arithmetic.
	res := mustExec(t, e, "SELECT grp, COUNT(*), SUM(n) FROM big GROUP BY grp")
	if len(res.Rows) != 10 {
		t.Fatalf("GROUP BY: %d groups", len(res.Rows))
	}
	for gi, r := range res.Rows {
		var cnt, sum int64
		for n := gi; n < total; n += 10 {
			cnt++
			sum += int64(n)
		}
		if r[0].Int() != int64(gi) || r[1].Int() != cnt || r[2].Int() != sum {
			t.Fatalf("group %d: got %v, want (%d, %d, %d)", gi, r, gi, cnt, sum)
		}
	}
}

// TestVMMultiBatchLogicalReuse: regression for stale selection bits.
// Bool vectors are reused across batches and the AND/OR kernels
// skip-write false lanes, so a true bit surviving from batch k would
// over-match batch k+1 unless reuse zeroes the storage. The first
// predicate is the sharpest probe: its left operand is dense in batch 1
// and all-false afterwards, so any leaked bit shows up as extra rows.
func TestVMMultiBatchLogicalReuse(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, "CREATE TABLE mb (n INT)")
	total := 4 * vm.BatchSize
	mustExec(t, e, "BEGIN")
	for i := 0; i < total; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO mb (n) VALUES (%d)", i))
	}
	mustExec(t, e, "COMMIT")
	for _, c := range []struct {
		q    string
		keep func(n int) bool
	}{
		{fmt.Sprintf("SELECT n FROM mb WHERE n < %d AND n %% 7 = 0", vm.BatchSize), func(n int) bool { return n < vm.BatchSize && n%7 == 0 }},
		{"SELECT n FROM mb WHERE (n * 3 + 1) % 7 = 0 AND n % 11 != 0", func(n int) bool { return (n*3+1)%7 == 0 && n%11 != 0 }},
		{fmt.Sprintf("SELECT n FROM mb WHERE n %% 13 = 0 OR n >= %d", 3*vm.BatchSize), func(n int) bool { return n%13 == 0 || n >= 3*vm.BatchSize }},
	} {
		var want []int64
		for n := 0; n < total; n++ {
			if c.keep(n) {
				want = append(want, int64(n))
			}
		}
		res := mustExec(t, e, c.q)
		if len(res.Rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", c.q, len(res.Rows), len(want))
		}
		for i, r := range res.Rows {
			if r[0].Int() != want[i] {
				t.Fatalf("%s row %d: %v, want %d", c.q, i, r[0], want[i])
			}
		}
	}
	if res := mustExec(t, e, "SELECT COUNT(*) FROM mb WHERE n % 2 = 0 AND n % 3 = 0"); res.Rows[0][0].Int() != int64((total+5)/6) {
		t.Fatalf("COUNT: got %v, want %d", res.Rows[0][0], (total+5)/6)
	}
}

// TestVMMetricsCounters: the vm.* counters tick for compiled statements,
// subquery predicates included.
func TestVMMetricsCounters(t *testing.T) {
	e := newVMTestDB(t)
	c0, b0, r0 := e.mVMCompile.Value(), e.mVMBatches.Value(), e.mVMRows.Value()
	mustExec(t, e, "SELECT id FROM v WHERE a > 0")
	if e.mVMCompile.Value() == c0 {
		t.Fatal("vm.compile did not increase")
	}
	if e.mVMBatches.Value() == b0 || e.mVMRows.Value() == r0 {
		t.Fatal("vm.exec_batches / vm.rows did not increase")
	}
	c1 := e.mVMCompile.Value()
	mustExec(t, e, "SELECT id FROM v WHERE a > (SELECT MIN(a) FROM v)")
	if e.mVMCompile.Value() == c1 {
		t.Fatal("vm.compile did not increase for subquery predicate")
	}
	// Counters are exported through sys_metrics.
	res := mustExec(t, e, "SELECT name FROM sys_metrics WHERE name LIKE 'vm.%'")
	if len(res.Rows) < 4 {
		t.Fatalf("sys_metrics vm.* rows: got %d, want >= 4", len(res.Rows))
	}
}

// TestExplainCompiledMarkers: the marker appears on every full-scan
// filter and join-free projection, subquery predicates included.
func TestExplainCompiledMarkers(t *testing.T) {
	e := newVMTestDB(t)
	wantLine(t, explainLines(t, e, "SELECT id FROM v WHERE a + 1 > 0"), "scan v: full-scan [compiled]")
	wantLine(t, explainLines(t, e, "SELECT a * 2 FROM v WHERE a > 0"), "project: compiled")
	wantLine(t, explainLines(t, e, "UPDATE v SET a = 0 WHERE a < 0"), "update v: full-scan [compiled]")
	wantLine(t, explainLines(t, e, "DELETE FROM v WHERE a < 0"), "delete v: full-scan [compiled]")
	wantLine(t, explainLines(t, e, "SELECT id FROM v WHERE a > (SELECT MIN(a) FROM v)"), "scan v: full-scan [compiled]")
}
