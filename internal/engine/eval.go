package engine

import (
	"fmt"
	"strings"
	"sync"

	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// colMeta identifies one column of an intermediate relation.
type colMeta struct {
	qual   string     // lower-cased table alias, "" for computed columns
	name   string     // lower-cased column name
	hidden bool       // system columns (_tid, _created) excluded from `*`
	kind   types.Kind // declared kind; KindNull when unknown/computed. Advisory
	// only: the VM batch layer verifies each value and falls back to
	// boxed lanes on mismatch (view backing tables infer kinds).
}

// relation is an intermediate result. Base-table sources may start lazy
// (cols known, rows not yet fetched) so joins can probe the table's
// storage indexes instead of materializing it; materializeRel fills rows
// on demand.
type relation struct {
	cols []colMeta
	rows []types.Row

	tbl  *storage.Table // backing table for a base-table source, else nil
	lazy bool           // true until rows are filled from tbl

	// projNames is non-nil when the compiled scan already evaluated the
	// statement's projection (see scanProjection): rows are the final
	// output tuples and cols describe them, not the source table.
	projNames []string

	// aggs maps each aggregate call of a per-group relation (see aggRel)
	// to its result column; errs holds per row, by column, the errors of
	// failed aggregates (nil: none), which evalVecsRange loads into
	// batches as lane errors.
	aggs map[*sqltext.FuncCall]int
	errs [][]error
}

// subset returns the relation restricted to the rows at idx, in order.
func (rel *relation) subset(idx []int) *relation {
	out := &relation{cols: rel.cols, aggs: rel.aggs, rows: make([]types.Row, len(idx))}
	for k, i := range idx {
		out.rows[k] = rel.rows[i]
	}
	if rel.errs != nil {
		out.errs = make([][]error, len(idx))
		for k, i := range idx {
			out.errs[k] = rel.errs[i]
		}
	}
	return out
}

// colIndex resolves column references against a relation layout:
// qualified names exactly, bare names only when unambiguous. The
// compiler and the join planner both resolve through it.
type colIndex struct {
	byQual    map[string]int // "qual.name" → position
	byName    map[string]int // "name" → position (unambiguous only)
	ambiguous map[string]bool
}

func newColIndex(cols []colMeta) *colIndex {
	ix := &colIndex{
		byQual:    make(map[string]int, len(cols)),
		byName:    make(map[string]int, len(cols)),
		ambiguous: map[string]bool{},
	}
	for i, c := range cols {
		if c.qual != "" {
			ix.byQual[c.qual+"."+c.name] = i
		}
		if _, dup := ix.byName[c.name]; dup {
			ix.ambiguous[c.name] = true
		} else {
			ix.byName[c.name] = i
		}
	}
	return ix
}

// resolve returns the position of a column reference, or the error the
// reference raises when evaluated.
func (ix *colIndex) resolve(table, column string) (int, error) {
	name := strings.ToLower(column)
	if table != "" {
		if i, ok := ix.byQual[strings.ToLower(table)+"."+name]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("engine: unknown column %s.%s", table, column)
	}
	if ix.ambiguous[name] {
		return 0, fmt.Errorf("engine: ambiguous column %s", column)
	}
	if i, ok := ix.byName[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("engine: unknown column %s", column)
}

// binder is the binding scope of one statement evaluation: arguments,
// IVM table overrides, snapshot context and the subquery cache. Every
// compiled machine of the evaluation binds to it as its vm.Subqueries,
// so a subquery runs once, on whichever goroutine first reaches it.
type binder struct {
	e         *Engine
	args      []types.Value
	overrides map[string][]types.Row // IVM table substitution
	ctx       *stmtCtx               // statement context (snapshot seq, scan tally)

	subMu sync.Mutex
	subs  map[*sqltext.Select]*subResult
}

// subResult is one evaluated subquery: its rows or its error.
type subResult struct {
	rows []types.Row
	err  error
}

func newBinder(e *Engine, args []types.Value, overrides map[string][]types.Row, ctx *stmtCtx) *binder {
	return &binder{e: e, args: args, overrides: overrides, ctx: ctx}
}

// Rows implements vm.Subqueries: an uncorrelated subquery's rows,
// evaluated once per binder; concurrent workers wait for the first
// evaluation (the only one to touch the statement context).
func (b *binder) Rows(q *sqltext.Select) ([]types.Row, error) {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	r, ok := b.subs[q]
	if !ok {
		res, err := b.e.evalSelectWith(q, b.args, b.overrides, b.ctx)
		r = &subResult{err: err}
		if err == nil {
			r.rows = res.Rows
		}
		if b.subs == nil {
			b.subs = map[*sqltext.Select]*subResult{}
		}
		b.subs[q] = r
	}
	return r.rows, r.err
}
