package engine

import (
	"fmt"
	"sort"
	"strings"

	"ediflow/internal/catalog"
	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// stmtCtx carries per-statement execution state: the MVCC snapshot seq
// base-table reads resolve against, the outermost SELECT (AS OF is only
// honored there), and an exact rows-scanned tally. One ctx exists per
// statement and is touched only by the executing goroutine.
type stmtCtx struct {
	snap       int64           // visibility ceiling for base-table reads
	top        *sqltext.Select // outermost SELECT of the statement, if any
	scanned    int64           // rows examined by this statement (exact)
	parWorkers int64           // widest parallel fan-out any phase used
}

// writerCtx returns the context of the mutation currently holding the
// write lock, or a fresh read-latest context when the engine is re-entered
// outside a mutation (view restore at startup, rollback refresh).
func (e *Engine) writerCtx() *stmtCtx {
	if e.writeCtx != nil {
		return e.writeCtx
	}
	return &stmtCtx{snap: storage.SeqLatest}
}

// evalSelect runs a SELECT against the snapshot captured in ctx.
func (e *Engine) evalSelect(sel *sqltext.Select, args []types.Value, ctx *stmtCtx) (*Result, error) {
	return e.evalSelectWith(sel, args, nil, ctx)
}

// EvalWith implements ivm.Evaluator: evaluate a SELECT with some tables'
// contents substituted. The caller is the view maintainer running inside
// an engine mutation, which already holds the write lock — reads resolve
// at SeqLatest so the maintainer sees the statement's own writes.
func (e *Engine) EvalWith(sel *sqltext.Select, overrides map[string][]types.Row) ([]types.Row, error) {
	// The maintainer consumes the rows immediately and never mutates them
	// in place, so the defensive output clone is skipped — at firehose
	// rates it was a measurable share of the per-statement allocation.
	res, err := e.evalSelectNoClone(sel, nil, overrides, e.writerCtx())
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (e *Engine) evalSelectWith(sel *sqltext.Select, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) (*Result, error) {
	res, err := e.evalSelectNoClone(sel, args, overrides, ctx)
	if err != nil {
		return nil, err
	}
	// Copy rows out so callers never alias engine-internal storage. The
	// projected path always builds fresh rows, but the scan-side
	// projection pushdown may hand back version values by reference.
	res.Rows = types.CloneRows(res.Rows)
	return res, nil
}

func (e *Engine) evalSelectNoClone(sel *sqltext.Select, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) (*Result, error) {
	if sel.AsOf != nil && sel != ctx.top {
		return nil, fmt.Errorf("engine: AS OF is only supported on the top-level SELECT")
	}
	b := newBinder(e, args, overrides, ctx)
	// Build the source relation (FROM + JOINs + WHERE).
	rel := &relation{rows: []types.Row{nil}} // one empty row: SELECT 1+1
	whereApplied := false
	if sel.From != nil {
		var err error
		if rel, whereApplied, err = e.buildFrom(sel, b); err != nil {
			return nil, err
		}
	}

	// Scan-side projection (see scanProjection): rows already ARE the
	// output tuples, and the pushdown gates guarantee that only
	// DISTINCT and LIMIT/OFFSET remain to apply.
	if rel.projNames != nil {
		out := rel.rows
		if sel.Distinct {
			out, _ = distinctRows(out)
		}
		out, err := e.limitRows(sel, out, rel, b)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: rel.projNames, Rows: out}, nil
	}

	// WHERE (unless the scan already streamed it — see buildTableRef).
	if sel.Where != nil && !whereApplied {
		if err := e.refilter(sel.Where, rel, b); err != nil {
			return nil, err
		}
	}

	// Projection: expand stars, determine output columns.
	items, colNames, err := expandItems(sel, rel)
	if err != nil {
		return nil, err
	}

	aggregate := len(sel.GroupBy) > 0 || sel.Having != nil
	if !aggregate {
		for _, it := range items {
			if it.Expr != nil && sqltext.HasAggregate(it.Expr) {
				aggregate = true
				break
			}
		}
	}

	// src holds, per output row, what ORDER BY source expressions read:
	// the source row, or in aggregate context the group's row of source
	// columns and aggregate results.
	var out []types.Row
	var src *relation
	if aggregate {
		out, src, err = e.evalAggregateSelect(sel, items, rel, b)
	} else {
		out, _, err = e.projectRows(nil, items, rel, b)
		src = e.rowSource(sel, rel, b)
	}
	if err != nil {
		return nil, err
	}

	// DISTINCT.
	if sel.Distinct {
		var keep []int
		out, keep = distinctRows(out)
		if len(sel.OrderBy) > 0 {
			src = src.subset(keep)
		}
	}

	// ORDER BY (bounded top-k selection when LIMIT is statically known).
	if len(sel.OrderBy) > 0 {
		if out, err = e.orderRows(sel, colNames, out, src, b); err != nil {
			return nil, err
		}
	}

	if out, err = e.limitRows(sel, out, rel, b); err != nil {
		return nil, err
	}
	return &Result{Columns: colNames, Rows: out}, nil
}

// rowSource is what the ORDER BY of a non-aggregate SELECT reads: the
// source rows, plus a result column per ORDER BY aggregate, each source
// row folded alone.
func (e *Engine) rowSource(sel *sqltext.Select, rel *relation, b *binder) *relation {
	var exprs []sqltext.Expr
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	calls := aggCalls(exprs)
	if len(calls) == 0 {
		return rel
	}
	n := len(rel.rows)
	g := groups{rowGroup: make([]int32, n), first: make([]int, n), sizes: make([]int, n)}
	for i := 0; i < n; i++ {
		g.rowGroup[i], g.first[i], g.sizes[i] = int32(i), i, 1
	}
	return e.aggRel(calls, rel, b, g)
}

// distinctRows drops repeated output rows, keeping first occurrences,
// and returns the kept rows' positions.
func distinctRows(out []types.Row) ([]types.Row, []int) {
	seen := map[string]bool{}
	kept := out[:0:0]
	var keep []int
	for i, r := range out {
		k := types.RowKey(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		kept = append(kept, r)
		keep = append(keep, i)
	}
	return kept, keep
}

// limitRows applies OFFSET then LIMIT. Both evaluate once with no row
// in scope.
func (e *Engine) limitRows(sel *sqltext.Select, out []types.Row, rel *relation, b *binder) ([]types.Row, error) {
	if sel.Offset != nil {
		n, err := e.evalIntArg(sel.Offset, rel, b)
		if err != nil {
			return nil, err
		}
		if n > int64(len(out)) {
			n = int64(len(out))
		}
		if n > 0 {
			out = out[n:]
		}
	}
	if sel.Limit != nil {
		n, err := e.evalIntArg(sel.Limit, rel, b)
		if err != nil {
			return nil, err
		}
		if n < int64(len(out)) && n >= 0 {
			out = out[:n]
		}
	}
	return out, nil
}

func (e *Engine) evalIntArg(x sqltext.Expr, rel *relation, b *binder) (int64, error) {
	v, err := e.evalCell(x, rel, b)
	if err != nil {
		return 0, err
	}
	return v.AsInt()
}

// projItem is a resolved projection item.
type projItem struct {
	Expr  sqltext.Expr
	Alias string
}

// expandItems resolves stars against the relation and returns projection
// expressions plus output column names.
func expandItems(sel *sqltext.Select, rel *relation) ([]projItem, []string, error) {
	var items []projItem
	var names []string
	for _, it := range sel.Items {
		switch {
		case it.Star:
			qual := strings.ToLower(it.Table)
			matched := false
			for _, c := range rel.cols {
				if c.hidden {
					continue
				}
				if qual != "" && c.qual != qual {
					continue
				}
				matched = true
				ref := &sqltext.ColumnRef{Column: c.name}
				if c.qual != "" {
					ref.Table = c.qual
				}
				items = append(items, projItem{Expr: ref})
				names = append(names, c.name)
			}
			if qual != "" && !matched {
				return nil, nil, fmt.Errorf("engine: unknown table %s in %s.*", it.Table, it.Table)
			}
		default:
			name := it.Alias
			if name == "" {
				if cr, ok := it.Expr.(*sqltext.ColumnRef); ok {
					name = cr.Column
				} else {
					name = it.Expr.String()
				}
			}
			items = append(items, projItem{Expr: it.Expr, Alias: it.Alias})
			names = append(names, name)
		}
	}
	return items, names, nil
}

// groups is the grouping of a relation's rows: per row its group
// ordinal (nil: one group holding every row), and per group its first
// row (-1 when empty) and size.
type groups struct {
	rowGroup []int32
	first    []int
	sizes    []int
}

// evalAggregateSelect evaluates GROUP BY / aggregate projection: every
// aggregate call is folded per group (aggRel), then HAVING and the items
// run over one row per group. It returns the output rows and, aligned,
// the group rows ORDER BY reads.
func (e *Engine) evalAggregateSelect(sel *sqltext.Select, items []projItem, rel *relation, b *binder) ([]types.Row, *relation, error) {
	n := len(rel.rows)
	var g groups
	if len(sel.GroupBy) == 0 {
		// Single implicit group; aggregates over an empty relation still
		// produce one row (COUNT(*) = 0).
		g.first, g.sizes = []int{-1}, []int{n}
		if n > 0 {
			g.first[0] = 0
		}
	} else {
		// Group keys: the RowKey of the GROUP BY expressions per row.
		keys := make([]string, n)
		progs := make([]*vm.Program, len(sel.GroupBy))
		for i, x := range sel.GroupBy {
			progs[i] = e.compiledProg(x, rel)
		}
		if err := e.evalKeys(progs, rel, b, keys); err != nil {
			return nil, nil, err
		}
		g.rowGroup = make([]int32, n)
		ordinal := make(map[string]int32)
		for i, k := range keys {
			gi, ok := ordinal[k]
			if !ok {
				gi = int32(len(g.first))
				ordinal[k] = gi
				g.first = append(g.first, i)
				g.sizes = append(g.sizes, 0)
			}
			g.sizes[gi]++
			g.rowGroup[i] = gi
		}
	}
	exprs := []sqltext.Expr{sel.Having}
	for _, it := range items {
		exprs = append(exprs, it.Expr)
	}
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	grp := e.aggRel(aggCalls(exprs), rel, b, g)
	out, kept, err := e.projectRows(sel.Having, items, grp, b)
	if err != nil {
		return nil, nil, err
	}
	if sel.Having != nil {
		grp = grp.subset(kept)
	}
	return out, grp, nil
}

// aggCalls collects the distinct aggregate calls of exprs in order of
// appearance. An aggregate's own arguments are not searched: a nested
// aggregate is evaluated per source row, where it is an error.
func aggCalls(exprs []sqltext.Expr) []*sqltext.FuncCall {
	var calls []*sqltext.FuncCall
	seen := map[*sqltext.FuncCall]bool{}
	for _, x := range exprs {
		sqltext.WalkExpr(x, func(x sqltext.Expr) bool {
			fc, ok := x.(*sqltext.FuncCall)
			if !ok || !sqltext.IsAggregateName(fc.Name) {
				return true
			}
			if !seen[fc] {
				seen[fc] = true
				calls = append(calls, fc)
			}
			return false
		})
	}
	return calls
}

// aggRel builds the relation aggregate-context expressions run over:
// per group, its first source row (NULLs for an empty group) then one
// column per aggregate call with its result, or its error, raised only
// where a lane reads it (a group HAVING rejects never raises).
func (e *Engine) aggRel(calls []*sqltext.FuncCall, rel *relation, b *binder, g groups) *relation {
	nSrc, nGroups := len(rel.cols), len(g.first)
	grp := &relation{cols: make([]colMeta, nSrc+len(calls)), aggs: make(map[*sqltext.FuncCall]int, len(calls))}
	copy(grp.cols, rel.cols)
	for k, fc := range calls {
		grp.cols[nSrc+k] = colMeta{hidden: true}
		grp.aggs[fc] = nSrc + k
	}
	fold := e.buildAggFold(calls, rel, b, g.rowGroup, nGroups)
	w := len(grp.cols)
	slab := make([]types.Value, nGroups*w)
	grp.rows = make([]types.Row, nGroups)
	for gi := range grp.rows {
		row := types.Row(slab[gi*w : (gi+1)*w : (gi+1)*w])
		if f := g.first[gi]; f >= 0 {
			copy(row[:nSrc], rel.rows[f])
		}
		for k := range calls {
			v, err := fold.result(k, gi, g.sizes[gi])
			if err != nil {
				if grp.errs == nil {
					grp.errs = make([][]error, nGroups)
				}
				if grp.errs[gi] == nil {
					grp.errs[gi] = make([]error, w)
				}
				grp.errs[gi][nSrc+k] = err
				continue
			}
			row[nSrc+k] = v
		}
		grp.rows[gi] = row
	}
	return grp
}

// scanProj is a projection compiled for evaluation inside the scan
// loop: per item either a direct column index (bare references) or a
// bound machine sharing the scan's batch.
type scanProj struct {
	names    []string
	progs    []*vm.Program
	machines []*vm.Machine
	bare     []int
	vecs     []*vm.Vec
}

// scanProjection decides whether the statement's projection can run
// inside the compiled scan. It can when the scan serves the top-level
// SELECT itself (matchTable fabricates a star select for UPDATE/DELETE
// row matching and needs full-width rows with the _tid column — as do
// subquery sources feeding an outer binder) and nothing downstream
// needs the source rows: no GROUP BY / HAVING / ORDER BY, LIMIT and
// OFFSET are literals or parameters, and no item aggregates. DISTINCT is
// fine — it runs over output tuples.
func (e *Engine) scanProjection(sel *sqltext.Select, rel *relation, b *binder) *scanProj {
	if sel == nil || sel != b.ctx.top || len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 ||
		!plainIntArg(sel.Limit) || !plainIntArg(sel.Offset) {
		return nil
	}
	items, names, err := expandItems(sel, rel)
	if err != nil || len(items) == 0 {
		return nil
	}
	for _, it := range items {
		// Aggregates route to evalAggregateSelect.
		if sqltext.HasAggregate(it.Expr) {
			return nil
		}
	}
	sp := &scanProj{
		names:    names,
		progs:    make([]*vm.Program, len(items)),
		machines: make([]*vm.Machine, len(items)),
		bare:     make([]int, len(items)),
		vecs:     make([]*vm.Vec, len(items)),
	}
	for i, it := range items {
		p := e.compiledProg(it.Expr, rel)
		if c, ok := p.BareCol(); ok {
			sp.bare[i] = c
			continue
		}
		sp.bare[i] = -1
		sp.progs[i] = p
		sp.machines[i] = vm.NewMachine(p)
		sp.machines[i].Bind(b.args, b)
	}
	return sp
}

// plainIntArg reports whether a LIMIT/OFFSET expression can be
// evaluated without the source relation in scope.
func plainIntArg(x sqltext.Expr) bool {
	switch x.(type) {
	case nil, *sqltext.Literal, *sqltext.Param:
		return true
	}
	return false
}

// emit projects the matched lanes of one scan batch into output tuples
// on dst, a morsel's reorder-buffer slot. A lane error is returned (not raised): the
// caller must keep scanning so a later row's WHERE error still wins,
// exactly as the interpreter's filter-everything-then-project order
// implies.
func (sp *scanProj) emit(dst *[]types.Row, batch *vm.Batch, lanes []int, vals []types.Row, tids, created []int64, nUser int) error {
	for i, mch := range sp.machines {
		if mch != nil {
			sp.vecs[i] = mch.Eval(batch)
		}
	}
	w := len(sp.names)
	slab := make([]types.Value, len(lanes)*w)
	for k, li := range lanes {
		row := types.Row(slab[k*w : (k+1)*w : (k+1)*w])
		for i := range sp.names {
			if c := sp.bare[i]; c >= 0 {
				switch {
				case c < len(vals[li]):
					row[i] = vals[li][c]
				case c == nUser:
					row[i] = types.NewInt(tids[li])
				case c == nUser+1:
					row[i] = types.NewInt(created[li])
				}
				continue
			}
			if err := sp.vecs[i].Err(li); err != nil {
				return err
			}
			row[i] = sp.vecs[i].Value(li)
		}
		*dst = append(*dst, row)
	}
	return nil
}

// projectRows evaluates the projection over rel.rows in batches, keeping
// the rows a HAVING predicate (if any) accepts, whose indexes it returns.
// Lanes hold their errors until the row-major loop reaches them, so the
// first error is the one per-row evaluation raises: a row's HAVING, then
// its items, then the next row. Bare columns index the source row.
func (e *Engine) projectRows(having sqltext.Expr, items []projItem, rel *relation, b *binder) ([]types.Row, []int, error) {
	n, w := len(rel.rows), len(items)
	out := make([]types.Row, 0, n)
	if n == 0 {
		return out, nil, nil
	}
	// progs: HAVING first when present, then every non-bare item.
	var progs []*vm.Program
	if having != nil {
		progs = append(progs, e.compiledProg(having, rel))
	}
	bare := make([]int, w)
	slot := make([]int, w)
	for i, it := range items {
		p := e.compiledProg(it.Expr, rel)
		if c, ok := p.BareCol(); ok && rel.errs == nil {
			bare[i] = c
			continue
		}
		bare[i], slot[i] = -1, len(progs)
		progs = append(progs, p)
	}
	if len(progs) == 0 {
		// Every item is a bare column: pure row indexing, no batches to
		// fill or machines to run.
		slab := make([]types.Value, n*w)
		for ri, r := range rel.rows {
			row := types.Row(slab[ri*w : (ri+1)*w : (ri+1)*w])
			for i, c := range bare {
				if c < len(r) {
					row[i] = r[c]
				}
			}
			out = append(out, row)
		}
		return out, nil, nil
	}
	var kept []int
	err := e.evalVecsRange(progs, rel, b, 0, n, func(start, count int, vecs []*vm.Vec) error {
		// One slab of values per batch instead of one allocation per
		// output row.
		slab := make([]types.Value, count*w)
		for ri := 0; ri < count; ri++ {
			if having != nil {
				ok, err := vecs[0].Truth(ri)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				kept = append(kept, start+ri)
			}
			row := types.Row(slab[:w:w])
			slab = slab[w:]
			src := rel.rows[start+ri]
			for i, c := range bare {
				if c >= 0 {
					if c < len(src) {
						row[i] = src[c]
					}
					continue
				}
				v := vecs[slot[i]]
				if err := v.Err(ri); err != nil {
					return err
				}
				row[i] = v.Value(ri)
			}
			out = append(out, row)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, kept, nil
}

// orderRows sorts the output rows. ORDER BY keys may name output
// aliases/columns or positions, or be source expressions, compiled over
// src (aligned with out: the source rows, or the group rows in
// aggregate context). When LIMIT (+ OFFSET) is statically known, a
// bounded heap keeps only the top limit+offset rows instead of sorting
// the whole result — O(n log k) comparisons instead of O(n log n).
func (e *Engine) orderRows(sel *sqltext.Select, colNames []string, out []types.Row, src *relation, b *binder) ([]types.Row, error) {
	// Per key: an output position (pos >= 0), or slot, the index of its
	// program among the source-expression keys.
	pos := make([]int, len(sel.OrderBy))
	slot := make([]int, len(sel.OrderBy))
	var progs []*vm.Program
	for oi, o := range sel.OrderBy {
		pos[oi] = -1
		// Alias / output column reference?
		if cr, ok := o.Expr.(*sqltext.ColumnRef); ok && cr.Table == "" {
			for ci, n := range colNames {
				if strings.EqualFold(n, cr.Column) {
					pos[oi] = ci
					break
				}
			}
			if pos[oi] >= 0 {
				continue
			}
		}
		// Positional: ORDER BY 2.
		if lit, ok := o.Expr.(*sqltext.Literal); ok && lit.Value.Kind() == types.KindInt {
			p := int(lit.Value.Int()) - 1
			if p < 0 || p >= len(colNames) {
				return nil, fmt.Errorf("engine: ORDER BY position %d out of range", p+1)
			}
			pos[oi] = p
			continue
		}
		// Source expression.
		slot[oi] = len(progs)
		progs = append(progs, e.compiledProg(o.Expr, src))
	}
	// Precompute keys, surfacing errors in (row, key) order.
	keys := make([][]types.Value, len(out))
	setKeys := func(i int, vecs []*vm.Vec, lane int) error {
		keys[i] = make([]types.Value, len(pos))
		for j, p := range pos {
			if p >= 0 {
				keys[i][j] = out[i][p]
				continue
			}
			v := vecs[slot[j]]
			if err := v.Err(lane); err != nil {
				return err
			}
			keys[i][j] = v.Value(lane)
		}
		return nil
	}
	if len(progs) == 0 {
		for i := range out {
			_ = setKeys(i, nil, 0)
		}
	} else if err := e.evalVecsRange(progs, src, b, 0, len(out), func(start, count int, vecs []*vm.Vec) error {
		for ri := 0; ri < count; ri++ {
			if err := setKeys(start+ri, vecs, ri); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// less orders row indexes by the ORDER BY keys, breaking ties by
	// original position so the result matches a stable sort.
	var sortErr error
	less := func(a, bb int) bool {
		for j := range pos {
			c, err := types.Compare(keys[a][j], keys[bb][j])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if sel.OrderBy[j].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return a < bb
	}

	// Bound: LIMIT k (+ OFFSET m) means only the first k+m sorted rows
	// survive, so a size-k+m heap suffices.
	k := -1
	if sel.Limit != nil {
		if n, ok := constInt(b, sel.Limit); ok && n >= 0 {
			k = int(n)
			if sel.Offset != nil {
				if m, ok := constInt(b, sel.Offset); ok && m >= 0 {
					k += int(m)
				} else {
					k = -1
				}
			}
		}
	}

	var idx []int
	if k >= 0 && k < len(out) {
		idx = topKIndexes(len(out), k, less)
	} else {
		idx = make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, bb int) bool { return less(idx[a], idx[bb]) })
	}
	if sortErr != nil {
		return nil, sortErr
	}
	sorted := make([]types.Row, len(idx))
	for i, p := range idx {
		sorted[i] = out[p]
	}
	return sorted, nil
}

// constInt evaluates a LIMIT/OFFSET expression when it is a literal or a
// bound parameter; anything else is not statically known.
func constInt(b *binder, x sqltext.Expr) (int64, bool) {
	v, ok := constVal(x, b.args)
	if !ok || v.IsNull() {
		return 0, false
	}
	n, err := v.AsInt()
	if err != nil {
		return 0, false
	}
	return n, true
}

// topKIndexes selects the k smallest (per less) of n row indexes using a
// bounded max-heap whose root is the worst row kept so far, then sorts
// the survivors. O(n log k) comparisons, O(k) extra space.
func topKIndexes(n, k int, less func(a, b int) bool) []int {
	if k <= 0 {
		return nil
	}
	h := make([]int, 0, k)
	worse := func(a, b int) bool { return less(b, a) }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && worse(h[l], h[big]) {
				big = l
			}
			if r < len(h) && worse(h[r], h[big]) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h[i], h[p]) {
				return
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			siftUp(len(h) - 1)
		} else if less(i, h[0]) {
			h[0] = i
			siftDown(0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
}

// buildFrom builds the FROM clause (with joins) into a relation. The
// returned bool reports whether the WHERE clause was already applied
// during the scan (streaming full scan).
func (e *Engine) buildFrom(sel *sqltext.Select, b *binder) (*relation, bool, error) {
	left, whereApplied, err := e.buildTableRef(*sel.From, b, sel)
	if err != nil {
		return nil, false, err
	}
	for _, j := range sel.Joins {
		right, err := e.buildJoinSource(j.Right, b)
		if err != nil {
			return nil, false, err
		}
		left, err = e.join(left, right, j, b)
		if err != nil {
			return nil, false, err
		}
	}
	return left, whereApplied, nil
}

// buildTableRef builds one FROM entry. When sel is non-nil (single base
// table with no joins), the planner chooses an access path from the
// WHERE clause: an index point/IN lookup fetching only candidate rows,
// or a streaming full scan that evaluates WHERE inside the scan loop so
// non-matching rows are never copied. The bool reports whether WHERE was
// fully applied by the scan.
func (e *Engine) buildTableRef(tr sqltext.TableRef, b *binder, sel *sqltext.Select) (*relation, bool, error) {
	args, overrides, ctx := b.args, b.overrides, b.ctx
	if tr.Subquery != nil {
		res, err := e.evalSelectWith(tr.Subquery, args, overrides, ctx)
		if err != nil {
			return nil, false, err
		}
		qual := strings.ToLower(tr.Alias)
		rel := &relation{}
		for _, n := range res.Columns {
			rel.cols = append(rel.cols, colMeta{qual: qual, name: strings.ToLower(n)})
		}
		rel.rows = res.Rows
		return rel, false, nil
	}
	name := tr.Table
	qual := strings.ToLower(tr.Alias)
	if qual == "" {
		qual = strings.ToLower(name)
	}

	// Virtual system tables (sys_metrics, sys_slow_queries, sys_sessions)
	// are computed on the fly and shadow the catalog.
	if vt := e.lookupVirtual(name); vt != nil {
		rel := &relation{}
		for _, c := range vt.cols {
			rel.cols = append(rel.cols, colMeta{qual: qual, name: c})
		}
		rel.rows = vt.fn()
		e.countScanned(ctx, len(rel.rows))
		return rel, false, nil
	}

	// View resolution: the backing table holds the materialized rows.
	if v, ok := e.cat.View(name); ok {
		name = v.Backing
	}

	schema, ok := e.cat.Table(name)
	if !ok {
		return nil, false, fmt.Errorf("engine: no such table %q", tr.Table)
	}
	rel := &relation{}
	for _, c := range schema.Columns {
		rel.cols = append(rel.cols, colMeta{qual: qual, name: strings.ToLower(c.Name), kind: c.Type})
	}
	rel.cols = append(rel.cols,
		colMeta{qual: qual, name: catalog.SysTID, hidden: true, kind: types.KindInt},
		colMeta{qual: qual, name: catalog.SysCreated, hidden: true, kind: types.KindInt},
	)

	// IVM override: substitute rows (user columns only; system columns 0).
	if rows, ok := overrides[strings.ToLower(tr.Table)]; ok {
		w := len(schema.Columns) + 2
		slab := make(types.Row, len(rows)*w)
		rel.rows = make([]types.Row, 0, len(rows))
		for ri, r := range rows {
			if len(r) != len(schema.Columns) {
				return nil, false, fmt.Errorf("engine: override row arity %d for %s (want %d)", len(r), tr.Table, len(schema.Columns))
			}
			full := slab[ri*w : (ri+1)*w : (ri+1)*w]
			copy(full, r)
			full[w-2] = types.NewInt(0)
			full[w-1] = types.NewInt(0)
			rel.rows = append(rel.rows, full)
		}
		return rel, false, nil
	}

	tbl := e.store.Table(name)
	if tbl == nil {
		return nil, false, fmt.Errorf("engine: storage missing for table %q", name)
	}
	rel.tbl = tbl

	var where sqltext.Expr
	if sel != nil && len(sel.Joins) == 0 {
		where = sel.Where
	}

	// Index access path: fetch only candidate tids, then let the caller
	// re-apply the full WHERE (a conjunct only restricts, so the
	// candidate set over-approximates and re-filtering is sound).
	if where != nil {
		if plan := analyzeScan(where, schema, tbl, qual); plan.kind != pathFullScan {
			if tids, ok := resolveScan(plan, schema, tbl, args, ctx.snap); ok {
				for _, tid := range tids {
					if sr, found := tbl.GetAt(tid, ctx.snap); found {
						rel.rows = append(rel.rows, fullRow(sr))
					}
				}
				e.countScanned(ctx, len(tids))
				return rel, false, nil
			}
		}
	}

	nUser := len(schema.Columns)

	// Compiled streaming full scan (see scanTable): the morsel executor
	// runs the compiled WHERE over column batches of snapshot rows, at
	// whatever width the table size and worker budget allow.
	if where != nil {
		// Projection pushdown: when the whole statement reduces to
		// "filter, project, maybe DISTINCT/LIMIT", evaluate the
		// projection on the already-filled batch and emit output tuples
		// directly — matched rows are never materialized at full table
		// width.
		proj := e.scanProjection(sel, rel, b)
		if err := e.scanTable(tbl, rel, e.compiledProg(where, rel), proj, b, nUser); err != nil {
			return nil, false, err
		}
		if proj != nil {
			cols := make([]colMeta, len(proj.names))
			for i, n := range proj.names {
				cols[i] = colMeta{name: strings.ToLower(n)}
			}
			rel.cols = cols
			rel.projNames = proj.names
		}
		return rel, true, nil
	}

	rel.lazy = true
	e.materializeRel(rel, ctx)
	return rel, false, nil
}

// buildJoinSource builds the right side of a join. Plain base tables
// stay lazy (columns only) so the join can probe their storage indexes
// without materializing; everything else falls back to buildTableRef.
func (e *Engine) buildJoinSource(tr sqltext.TableRef, b *binder) (*relation, error) {
	if tr.Subquery == nil && e.lookupVirtual(tr.Table) == nil {
		if _, hasOverride := b.overrides[strings.ToLower(tr.Table)]; !hasOverride {
			name := tr.Table
			if v, ok := e.cat.View(name); ok {
				name = v.Backing
			}
			if _, ok := e.cat.Table(name); ok {
				if rel, err := e.refCols(tr); err == nil && rel.tbl != nil {
					return rel, nil
				}
			}
		}
	}
	rel, _, err := e.buildTableRef(tr, b, nil)
	return rel, err
}

// materializeRel fills a lazy base-table relation's rows as of the
// statement's snapshot.
func (e *Engine) materializeRel(rel *relation, ctx *stmtCtx) {
	if !rel.lazy {
		return
	}
	rel.lazy = false
	scanned := 0
	for it := rel.tbl.Iterate(ctx.snap); ; {
		sr, more := it.Next()
		if !more {
			break
		}
		scanned++
		rel.rows = append(rel.rows, fullRow(sr))
	}
	e.countScanned(ctx, scanned)
}

// fullRow is a stored row at relation width: its values, then the _tid
// and _created system columns.
func fullRow(sr storage.StoredRow) types.Row {
	full := make(types.Row, 0, len(sr.Values)+2)
	full = append(full, sr.Values...)
	return append(full, types.NewInt(sr.TID), types.NewInt(sr.Created))
}

// countScanned credits base-relation rows examined by a statement —
// rows the executor actually touched (streamed past, probed or
// materialized), not rows returned. The per-statement tally is exact;
// the global counter aggregates across statements for sys_metrics.
func (e *Engine) countScanned(ctx *stmtCtx, n int) {
	if n <= 0 {
		return
	}
	ctx.scanned += int64(n)
	if e.reg.Enabled() {
		e.mRowsScanned.Add(int64(n))
	}
}

// join combines two relations according to the join clause, using the
// planner's classification: hash join on the equality conjuncts of ON
// (probing the right side's storage index when one covers the key),
// otherwise a nested loop. Candidate rows are filtered by the compiled
// residual (hash) or ON (nested loop) a batch at a time; see joinEmitter.
func (e *Engine) join(left, right *relation, jc sqltext.JoinClause, b *binder) (*relation, error) {
	ctx := b.ctx
	out := &relation{cols: append(append([]colMeta{}, left.cols...), right.cols...)}
	plan := e.analyzeJoin(left, right, jc)

	if plan.kind == "cross" {
		e.materializeRel(right, ctx)
		for _, lr := range left.rows {
			for _, rr := range right.rows {
				out.rows = append(out.rows, concatRows(lr, rr))
			}
		}
		return out, nil
	}

	em := &joinEmitter{out: out, leftOuter: jc.Kind == "LEFT", pad: len(right.cols)}
	switch {
	case plan.kind != "hash":
		em.f = e.newRowFilter(e.compiledProg(jc.On, out), out, b)
	case len(plan.residual) == 1:
		em.f = e.newRowFilter(e.compiledProg(plan.residual[0], out), out, b)
	case len(plan.residual) > 1:
		// Built per execution, so compiled outside the program cache.
		em.f = e.newRowFilter(vm.Compile(residualPredicate(plan.residual), e.vmEnv(out)), out, b)
	}

	if plan.kind == "hash" && right.lazy && (plan.index != "" || plan.probePK) {
		// Probe the right side's storage index per left row instead of
		// materializing it and building a second hash table.
		probed := 0
		for _, lr := range left.rows {
			em.begin(lr)
			key := make(types.Row, len(plan.perm))
			null := false
			for i, p := range plan.perm {
				v := lr[plan.eqL[p]]
				if v.IsNull() {
					null = true
					break
				}
				key[i] = v
			}
			if !null {
				var tids []int64
				if plan.probePK {
					if tid, found := right.tbl.LookupPKAt(key[0], ctx.snap); found {
						tids = []int64{tid}
					}
				} else if found, ok := right.tbl.LookupIndexAt(plan.index, key, ctx.snap); ok {
					tids = found
				}
				for _, tid := range tids {
					sr, found := right.tbl.GetAt(tid, ctx.snap)
					if !found {
						continue
					}
					probed++
					em.add(concatRows(lr, fullRow(sr)))
				}
			}
			if err := em.end(); err != nil {
				return nil, err
			}
		}
		if err := em.flush(); err != nil {
			return nil, err
		}
		e.countScanned(ctx, probed)
		return out, nil
	}

	e.materializeRel(right, ctx)
	var idx *joinIndex
	if plan.kind == "hash" {
		// Build side: single map when small, hash-partitioned parallel
		// build when large (see buildJoinIndex). The probe stays
		// single-threaded either way and sees identical index lists.
		idx = e.buildJoinIndex(right.rows, plan.eqR, ctx)
	}
	for _, lr := range left.rows {
		em.begin(lr)
		if idx == nil {
			for _, rr := range right.rows {
				em.add(concatRows(lr, rr))
			}
		} else if k, ok := joinKey(lr, plan.eqL); ok {
			for _, m := range idx.lookup(k) {
				em.add(concatRows(lr, right.rows[m]))
			}
		}
		if err := em.end(); err != nil {
			return nil, err
		}
	}
	return out, em.flush()
}

func concatRows(l, r types.Row) types.Row {
	row := make(types.Row, 0, len(l)+len(r))
	row = append(row, l...)
	return append(row, r...)
}

// residualPredicate folds a hash join's residual conjuncts into one
// predicate that checks them one at a time: CASE WHEN c1 THEN (CASE
// WHEN c2 ...) ELSE FALSE END, so a FALSE or NULL conjunct stops the
// evaluation before the next one can raise.
func residualPredicate(cs []sqltext.Expr) sqltext.Expr {
	x := cs[len(cs)-1]
	for i := len(cs) - 2; i >= 0; i-- {
		x = &sqltext.CaseExpr{
			Whens: []sqltext.WhenClause{{Cond: cs[i], Result: x}},
			Else:  &sqltext.Literal{Value: types.NewBool(false)},
		}
	}
	return x
}

// joinEmitter appends a join's matches in left-row order: candidate
// rows queue up and are filtered in order, a batch at a time, through
// the compiled predicate f (nil: all match); a LEFT join pads each left
// row none of whose candidates survives.
type joinEmitter struct {
	out       *relation
	f         *rowFilter
	leftOuter bool
	pad       int // right-side width

	lefts []types.Row // left rows queued since the last flush
	owner []int       // per candidate: its left row's index in lefts
	cands []types.Row
}

func (j *joinEmitter) begin(lr types.Row) { j.lefts = append(j.lefts, lr) }

func (j *joinEmitter) add(row types.Row) {
	j.owner = append(j.owner, len(j.lefts)-1)
	j.cands = append(j.cands, row)
}

// end closes the current left row, flushing once a batch has queued.
func (j *joinEmitter) end() error {
	if len(j.cands) < vm.BatchSize {
		return nil
	}
	return j.flush()
}

func (j *joinEmitter) flush() error {
	var sel []int
	if j.f != nil {
		var err error
		if sel, err = j.f.filter(j.cands); err != nil {
			return err
		}
	}
	ci, si := 0, 0
	for li, lr := range j.lefts {
		matched := false
		for ; ci < len(j.cands) && j.owner[ci] == li; ci++ {
			if j.f != nil {
				if si == len(sel) || sel[si] != ci {
					continue
				}
				si++
			}
			matched = true
			j.out.rows = append(j.out.rows, j.cands[ci])
		}
		if !matched && j.leftOuter {
			j.out.rows = append(j.out.rows, concatRows(lr, make(types.Row, j.pad)))
		}
	}
	j.lefts, j.owner, j.cands = j.lefts[:0], j.owner[:0], j.cands[:0]
	return nil
}
