package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// This file is the engine side of the compiled expression VM
// (internal/engine/vm): compiling expressions against a relation's
// column layout, caching the programs, and running batches.
//
// Programs are cached per expression *pointer*. The plan cache
// (plancache.go) already guarantees pointer stability: a SQL text parses
// once and every execution reuses the same AST, so caching by expression
// identity is exactly "compiled programs live beside parsed plans" —
// with the bonus that statement-internal expressions (IVM refresh
// queries, UPDATE SET lists) cache the same way. DDL and
// function-registry changes purge the cache (and bump a generation so
// in-flight EXPLAINs never resurrect a stale program).

// progCache maps expression identity to its compiled program.
type progCache struct {
	mu  sync.Mutex
	m   map[sqltext.Expr]*progEntry
	cap int
}

type progEntry struct {
	prog  *vm.Program
	ncols int // column-layout width the program was compiled for
}

func newProgCache(cap int) *progCache {
	return &progCache{m: make(map[sqltext.Expr]*progEntry), cap: cap}
}

func (c *progCache) get(x sqltext.Expr, ncols int) (*vm.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[x]
	if !ok || e.ncols != ncols {
		return nil, false
	}
	return e.prog, true
}

func (c *progCache) put(x sqltext.Expr, ncols int, p *vm.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.cap {
		// Unbounded keys are possible (IVM MIN/MAX recompute builds fresh
		// ASTs); a rare clear-all is cheaper than tracking LRU order.
		c.m = make(map[sqltext.Expr]*progEntry)
	}
	c.m[x] = &progEntry{prog: p, ncols: ncols}
}

func (c *progCache) purge() {
	c.mu.Lock()
	c.m = make(map[sqltext.Expr]*progEntry)
	c.mu.Unlock()
}

func (c *progCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// vmEnv builds the compile environment for a relation layout: columns
// resolve through colIndex (built on first use), aggregate calls to the
// relation's result columns.
func (e *Engine) vmEnv(rel *relation) *vm.Env {
	var ix *colIndex
	return &vm.Env{
		Resolve: func(table, column string) (int, error) {
			if ix == nil {
				ix = newColIndex(rel.cols)
			}
			return ix.resolve(table, column)
		},
		Func: e.vmFunc,
		Aggregate: func(call *sqltext.FuncCall) (int, error) {
			if col, ok := rel.aggs[call]; ok {
				return col, nil
			}
			return 0, fmt.Errorf("engine: aggregate %s outside GROUP BY context", call.Name)
		},
		MissingParam: func(idx int) error {
			return fmt.Errorf("engine: missing argument for parameter %d", idx+1)
		},
		ScalarRows: func(n int) error {
			return fmt.Errorf("engine: scalar subquery returned %d rows", n)
		},
		InWidth: errInWidth,
	}
}

var errInWidth = errors.New("engine: IN subquery must return one column")

// vmFunc resolves a scalar function for the compiler: builtins first,
// then user-registered functions, else the unknown-function error.
func (e *Engine) vmFunc(name string) vm.ScalarFunc {
	if builtinScalars[name] {
		return func(args []types.Value) (types.Value, error) {
			return callScalar(name, args)
		}
	}
	if fn := e.userFunc(name); fn != nil {
		return vm.ScalarFunc(fn)
	}
	return func([]types.Value) (types.Value, error) {
		return types.Null, fmt.Errorf("engine: unknown function %s", name)
	}
}

// compiledProg returns the compiled program for x over rel's layout,
// cached by expression identity and compiled on first sight.
func (e *Engine) compiledProg(x sqltext.Expr, rel *relation) *vm.Program {
	if cr, ok := x.(*sqltext.ColumnRef); ok {
		// Bare column refs (star expansions rebuild these per execution,
		// so their pointers never repeat) compile to a single opCol —
		// cheaper to recompile than to churn the cache.
		return vm.Compile(cr, e.vmEnv(rel))
	}
	if p, ok := e.progs.get(x, len(rel.cols)); ok {
		return p
	}
	p := vm.Compile(x, e.vmEnv(rel))
	e.mVMCompile.Inc()
	e.progs.put(x, len(rel.cols), p)
	return p
}

// evalCell evaluates x once with no row in scope (VALUES cells,
// LIMIT/OFFSET): column references resolve against rel's layout and read
// NULL. Literals and bound parameters are their own value, so the
// common cells need no program at all.
func (e *Engine) evalCell(x sqltext.Expr, rel *relation, b *binder) (types.Value, error) {
	if v, ok := constVal(x, b.args); ok {
		return v, nil
	}
	out, _, err := e.projectRows(nil, []projItem{{Expr: x}}, &relation{cols: rel.cols, rows: []types.Row{nil}}, b)
	if err != nil {
		return types.Null, err
	}
	return out[0][0], nil
}

// countVM charges one executed batch of n rows to the vm.* counters.
func (e *Engine) countVM(n int) {
	if e.reg.Enabled() {
		e.mVMBatches.Inc()
		e.mVMRows.Add(int64(n))
	}
}

// batchKinds maps a relation layout to per-column batch kinds. Declared
// kinds are advisory (view backing tables infer them): the batch
// promotes a column to boxed lanes if a row disagrees.
func batchKinds(cols []colMeta) []types.Kind {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = c.kind
	}
	return kinds
}

// rowFilter runs one compiled predicate over in-memory rows a batch at
// a time, reusing its machine and batch across calls.
type rowFilter struct {
	e     *Engine
	m     *vm.Machine
	batch *vm.Batch
	sel   []int
}

func (e *Engine) newRowFilter(prog *vm.Program, rel *relation, b *binder) *rowFilter {
	m := vm.NewMachine(prog)
	m.Bind(b.args, b)
	return &rowFilter{e: e, m: m, batch: vm.NewBatch(batchKinds(rel.cols), prog.Cols())}
}

// filter returns the ascending indexes of the rows the predicate
// accepts (reused by the next call). The first erroring row in order
// aborts, as a per-row filter loop would.
func (f *rowFilter) filter(rows []types.Row) ([]int, error) {
	f.sel = f.sel[:0]
	for start := 0; start < len(rows); start += vm.BatchSize {
		end := min(start+vm.BatchSize, len(rows))
		f.batch.Fill(rows[start:end])
		lanes, err := f.m.Filter(f.batch)
		if err != nil {
			return nil, err
		}
		for _, i := range lanes {
			f.sel = append(f.sel, start+i)
		}
		f.e.countVM(end - start)
	}
	return f.sel, nil
}

// refilter applies a WHERE the access path did not evaluate to the
// already-materialized rows of rel (index-scan candidates, post-join
// rows, IVM overrides).
func (e *Engine) refilter(where sqltext.Expr, rel *relation, b *binder) error {
	sel, err := e.newRowFilter(e.compiledProg(where, rel), rel, b).filter(rel.rows)
	if err != nil {
		return err
	}
	kept := make([]types.Row, len(sel))
	for k, i := range sel {
		kept[k] = rel.rows[i]
	}
	rel.rows = kept
	return nil
}

// ScalarFunc is a user-registered scalar SQL function. Arguments are
// already evaluated; the implementation is responsible for its own NULL
// handling, like the built-ins in funcs.go. The args slice is reused
// between calls and must not be retained.
type ScalarFunc func(args []types.Value) (types.Value, error)

// RegisterFunc registers (or replaces) a scalar function under the
// given name, callable from any SQL expression. Built-in names cannot
// be overridden. Registration purges compiled programs: a cached
// program has the previous implementation baked in, and serving it
// after re-registration would silently return stale results.
func (e *Engine) RegisterFunc(name string, fn ScalarFunc) {
	e.udfMu.Lock()
	if e.udfs == nil {
		e.udfs = map[string]ScalarFunc{}
	}
	e.udfs[strings.ToUpper(name)] = fn
	e.udfMu.Unlock()
	e.progs.purge()
}

// userFunc looks up a registered scalar function by upper-cased name.
func (e *Engine) userFunc(name string) ScalarFunc {
	e.udfMu.RLock()
	fn := e.udfs[name]
	e.udfMu.RUnlock()
	return fn
}
