package engine

import (
	"fmt"

	"ediflow/internal/catalog"
	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

func (e *Engine) execCreateTable(s *sqltext.CreateTable) (*Result, []ChangeEvent, error) {
	if _, exists := e.cat.Table(s.Name); exists {
		if s.IfNotExists {
			return &Result{}, nil, nil
		}
		return nil, nil, fmt.Errorf("engine: table %q already exists", s.Name)
	}
	schema := catalog.SchemaFromAST(s)
	if err := e.cat.AddTable(schema); err != nil {
		return nil, nil, err
	}
	if err := e.store.CreateTable(schema); err != nil {
		e.cat.DropTable(schema.Name)
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

func (e *Engine) execDropTable(s *sqltext.DropTable) (*Result, []ChangeEvent, error) {
	if _, exists := e.cat.Table(s.Name); !exists {
		if s.IfExists {
			return &Result{}, nil, nil
		}
		return nil, nil, fmt.Errorf("engine: no such table %q", s.Name)
	}
	if e.inTxn.Load() {
		return nil, nil, fmt.Errorf("engine: DROP TABLE inside a transaction is not supported")
	}
	if vs := e.views.dependents(s.Name); len(vs) > 0 {
		return nil, nil, fmt.Errorf("engine: table %q is referenced by view %q", s.Name, vs[0].def.Name)
	}
	if err := e.cat.DropTable(s.Name); err != nil {
		return nil, nil, err
	}
	if err := e.store.DropTable(s.Name); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

func (e *Engine) execCreateIndex(s *sqltext.CreateIndex) (*Result, []ChangeEvent, error) {
	if _, exists := e.cat.Index(s.Name); exists && s.IfNotExists {
		return &Result{}, nil, nil
	}
	if err := e.cat.AddIndex(&catalog.Index{Name: s.Name, Table: s.Table, Columns: s.Columns, Unique: s.Unique}); err != nil {
		return nil, nil, err
	}
	if err := e.store.AddIndex(s.Name, s.Table, s.Columns, s.Unique); err != nil {
		e.cat.DropIndex(s.Name)
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

func (e *Engine) execCreateTrigger(s *sqltext.CreateTrigger) (*Result, []ChangeEvent, error) {
	if err := e.cat.AddTrigger(&catalog.Trigger{Name: s.Name, Event: s.Event, Table: s.Table, Handler: s.Handler}); err != nil {
		return nil, nil, err
	}
	if err := e.store.PutMeta("trigger", s.Name, s.String()); err != nil {
		return nil, nil, err
	}
	return &Result{}, nil, nil
}

// resolveInsertTarget maps the statement's column list to schema positions.
func resolveInsertTarget(schema *catalog.TableSchema, cols []string) ([]int, error) {
	if len(cols) == 0 {
		all := make([]int, len(schema.Columns))
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	out := make([]int, len(cols))
	seen := map[int]bool{}
	for i, c := range cols {
		p := schema.ColIndex(c)
		if p < 0 {
			return nil, fmt.Errorf("engine: no column %q in %s", c, schema.Name)
		}
		if seen[p] {
			return nil, fmt.Errorf("engine: duplicate column %q", c)
		}
		seen[p] = true
		out[i] = p
	}
	return out, nil
}

func (e *Engine) execInsert(s *sqltext.Insert, args []types.Value) (*Result, []ChangeEvent, error) {
	if _, isView := e.cat.View(s.Table); isView {
		return nil, nil, fmt.Errorf("engine: cannot INSERT into view %q", s.Table)
	}
	schema, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	target, err := resolveInsertTarget(schema, s.Columns)
	if err != nil {
		return nil, nil, err
	}

	var sourceRows []types.Row
	if s.Query != nil {
		res, err := e.evalSelect(s.Query, args, e.writerCtx())
		if err != nil {
			return nil, nil, err
		}
		sourceRows = res.Rows
	} else {
		b := newBinder(e, args, nil, e.writerCtx())
		noCols := &relation{}
		for _, exprRow := range s.Rows {
			row := make(types.Row, len(exprRow))
			for i, ex := range exprRow {
				v, err := e.evalCell(ex, noCols, b)
				if err != nil {
					return nil, nil, err
				}
				row[i] = v
			}
			sourceRows = append(sourceRows, row)
		}
	}

	ev := ChangeEvent{Table: schema.Name, Op: OpInsert}
	for _, src := range sourceRows {
		if len(src) != len(target) {
			return nil, nil, fmt.Errorf("engine: INSERT into %s: %d values for %d columns", s.Table, len(src), len(target))
		}
		full := make(types.Row, len(schema.Columns))
		for i := range full {
			full[i] = types.Null
		}
		for i, p := range target {
			v, err := src[i].CoerceTo(schema.Columns[p].Type)
			if err != nil {
				return nil, nil, fmt.Errorf("engine: column %s.%s: %w", s.Table, schema.Columns[p].Name, err)
			}
			full[p] = v
		}
		tid, created, err := e.store.Insert(schema.Name, full)
		if err != nil {
			return nil, nil, err
		}
		if e.inTxn.Load() {
			e.undo = append(e.undo, undoEntry{op: OpInsert, table: schema.Name, tid: tid, created: created, newRow: full})
		}
		ev.TIDs = append(ev.TIDs, tid)
		ev.Rows = append(ev.Rows, full)
	}
	events := []ChangeEvent{}
	if len(ev.TIDs) > 0 {
		e.seq++
		ev.Seq = e.seq
		events = append(events, ev)
		viewEvents, err := e.views.applyDelta(schema.Name, ev.Rows, nil)
		if err != nil {
			return nil, nil, err
		}
		events = append(events, viewEvents...)
	}
	return &Result{Affected: len(ev.TIDs), TIDs: ev.TIDs}, events, nil
}

// matchTable builds the single-table relation for UPDATE/DELETE row
// selection, using the same planner access paths as SELECT scans.
func (e *Engine) matchTable(table string, where sqltext.Expr, b *binder) (*relation, error) {
	sel := &sqltext.Select{
		Items: []sqltext.SelectItem{{Star: true}},
		From:  &sqltext.TableRef{Table: table},
		Where: where,
	}
	rel, whereApplied, err := e.buildTableRef(*sel.From, b, sel)
	if err != nil {
		return nil, err
	}
	if where != nil && !whereApplied {
		if err := e.refilter(where, rel, b); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func (e *Engine) execUpdate(s *sqltext.Update, args []types.Value) (*Result, []ChangeEvent, error) {
	if _, isView := e.cat.View(s.Table); isView {
		return nil, nil, fmt.Errorf("engine: cannot UPDATE view %q", s.Table)
	}
	schema, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	// Resolve assignment targets.
	setPos := make([]int, len(s.Set))
	for i, a := range s.Set {
		p := schema.ColIndex(a.Column)
		if p < 0 {
			return nil, nil, fmt.Errorf("engine: no column %q in %s", a.Column, s.Table)
		}
		setPos[i] = p
	}
	b := newBinder(e, args, nil, e.writerCtx())
	rel, err := e.matchTable(s.Table, s.Where, b)
	if err != nil {
		return nil, nil, err
	}

	nUser := len(schema.Columns)
	// Batch-evaluate the SET expressions across all matched rows. Lane
	// errors are held per (row, assignment) and surfaced inside the apply
	// loop below, so the interleaving with store.Update — rows before the
	// erroring one are still applied — matches per-row evaluation.
	setVals, setErrs := e.updateSetVecs(s, rel, b)
	ev := ChangeEvent{Table: schema.Name, Op: OpUpdate}
	for ri, r := range rel.rows {
		tid := r[nUser].Int() // _tid system column
		oldRow := make(types.Row, nUser)
		copy(oldRow, r[:nUser])
		newRow := make(types.Row, nUser)
		copy(newRow, oldRow)
		for i, a := range s.Set {
			if setErrs[i] != nil && setErrs[i][ri] != nil {
				return nil, nil, setErrs[i][ri]
			}
			cv, err := setVals[i][ri].CoerceTo(schema.Columns[setPos[i]].Type)
			if err != nil {
				return nil, nil, fmt.Errorf("engine: column %s.%s: %w", s.Table, a.Column, err)
			}
			newRow[setPos[i]] = cv
		}
		if _, err := e.store.Update(schema.Name, tid, newRow); err != nil {
			return nil, nil, err
		}
		if e.inTxn.Load() {
			e.undo = append(e.undo, undoEntry{op: OpUpdate, table: schema.Name, tid: tid, oldRow: oldRow, newRow: newRow})
		}
		ev.TIDs = append(ev.TIDs, tid)
		ev.Rows = append(ev.Rows, newRow)
		ev.OldRows = append(ev.OldRows, oldRow)
	}
	events := []ChangeEvent{}
	if len(ev.TIDs) > 0 {
		e.seq++
		ev.Seq = e.seq
		events = append(events, ev)
		viewEvents, err := e.views.applyDelta(schema.Name, ev.Rows, ev.OldRows)
		if err != nil {
			return nil, nil, err
		}
		events = append(events, viewEvents...)
	}
	return &Result{Affected: len(ev.TIDs)}, events, nil
}

// updateSetVecs batch-evaluates the UPDATE's SET expressions over the
// matched rows. Returns per-assignment value and error columns (an
// error column stays nil until some row errors).
func (e *Engine) updateSetVecs(s *sqltext.Update, rel *relation, b *binder) ([][]types.Value, [][]error) {
	n := len(rel.rows)
	setVals := make([][]types.Value, len(s.Set))
	setErrs := make([][]error, len(s.Set))
	if n == 0 {
		return setVals, setErrs
	}
	// Literals and bound parameters are the same value on every row.
	var progs []*vm.Program
	var which []int
	for i, a := range s.Set {
		setVals[i] = make([]types.Value, n)
		if v, ok := constVal(a.Value, b.args); ok {
			for ri := range setVals[i] {
				setVals[i][ri] = v
			}
			continue
		}
		progs = append(progs, e.compiledProg(a.Value, rel))
		which = append(which, i)
	}
	if len(progs) == 0 {
		return setVals, setErrs
	}
	// The sink never fails, so neither does evalVecsRange.
	_ = e.evalVecsRange(progs, rel, b, 0, n, func(start, count int, vecs []*vm.Vec) error {
		for k, v := range vecs {
			i := which[k]
			for ri := 0; ri < count; ri++ {
				if err := v.Err(ri); err != nil {
					if setErrs[i] == nil {
						setErrs[i] = make([]error, n)
					}
					setErrs[i][start+ri] = err
					continue
				}
				setVals[i][start+ri] = v.Value(ri)
			}
		}
		return nil
	})
	return setVals, setErrs
}

func (e *Engine) execDelete(s *sqltext.Delete, args []types.Value) (*Result, []ChangeEvent, error) {
	if _, isView := e.cat.View(s.Table); isView {
		return nil, nil, fmt.Errorf("engine: cannot DELETE from view %q", s.Table)
	}
	schema, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, nil, fmt.Errorf("engine: no such table %q", s.Table)
	}
	rel, err := e.matchTable(s.Table, s.Where, newBinder(e, args, nil, e.writerCtx()))
	if err != nil {
		return nil, nil, err
	}
	nUser := len(schema.Columns)
	ev := ChangeEvent{Table: schema.Name, Op: OpDelete}
	for _, r := range rel.rows {
		tid := r[nUser].Int()
		created := r[nUser+1].Int()
		old, err := e.store.Delete(schema.Name, tid)
		if err != nil {
			return nil, nil, err
		}
		if e.inTxn.Load() {
			e.undo = append(e.undo, undoEntry{op: OpDelete, table: schema.Name, tid: tid, created: created, oldRow: old})
		}
		ev.TIDs = append(ev.TIDs, tid)
		ev.OldRows = append(ev.OldRows, old)
	}
	events := []ChangeEvent{}
	if len(ev.TIDs) > 0 {
		e.seq++
		ev.Seq = e.seq
		events = append(events, ev)
		viewEvents, err := e.views.applyDelta(schema.Name, nil, ev.OldRows)
		if err != nil {
			return nil, nil, err
		}
		events = append(events, viewEvents...)
	}
	return &Result{Affected: len(ev.TIDs)}, events, nil
}
