package engine

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ediflow/internal/engine/vm"
	"ediflow/internal/sqltext"
	"ediflow/internal/storage"
	"ediflow/internal/types"
)

// The morsel executor: the one compiled execution path for scans,
// GROUP BY keys, aggregate folds and hash-join builds.
//
// A full scan over an MVCC snapshot is embarrassingly parallel: the
// slot array is captured once (storage.SlotView), every worker resolves
// visibility lock-free against the same pinned sequence number, and the
// only coordination is an atomic cursor handing out morsels — fixed
// runs of version-chain slots, each a few VM batches long. Workers emit
// into a per-morsel reorder buffer, so gathering in morsel order yields
// exactly the serial scan's rows, errors, and rows-scanned tally:
// parallel execution is an invisible implementation detail.
//
// Serial execution is the same code at width 1: one morsel (or row
// range) spanning the whole input, run on the calling goroutine with
// the statement's own machines, gathered without a copy or a merge.
//
// The worker budget is engine-wide (Engine.parExtra): a phase reserves
// extra workers against the configured parallelism before fanning out
// and releases them at gather, so concurrent sessions degrade to
// narrower plans instead of oversubscribing the cores.

// morselSlots is the number of version-chain slots per morsel: 16 VM
// batches, small enough to load-balance skewed filters, large enough to
// amortize batch refills. Package variable (not const) so tests can
// shrink it to force multi-morsel plans on small tables. A phase fans
// out only over at least two morsels' worth of input (parallelWidth).
var morselSlots = 16 * vm.BatchSize

// parallelGroupCap bounds per-worker aggregate state slabs: beyond this
// many groups the partial-state memory (workers x items x groups)
// outweighs the fold savings and grouped folds stay serial.
const parallelGroupCap = 4096

// SetParallelism sets the target number of workers an eligible query
// may fan out to. 1 disables intra-query parallelism; 0 resets to
// runtime.GOMAXPROCS. The default is GOMAXPROCS at engine start.
func (e *Engine) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.parallelism.Store(int64(n))
}

// Parallelism reports the configured per-query worker target.
func (e *Engine) Parallelism() int { return int(e.parallelism.Load()) }

// parallelWidth reports how many workers a phase over n rows (or slots)
// would target — 1 means serial: parallelism is off, or the input is
// smaller than two morsels, so point lookups and small tables never pay
// goroutine overhead. It does not reserve anything.
func (e *Engine) parallelWidth(n int) int {
	w := int(e.parallelism.Load())
	if w <= 1 || n < 2*morselSlots {
		return 1
	}
	if m := (n + morselSlots - 1) / morselSlots; w > m {
		w = m
	}
	return w
}

// reserveWorkers claims up to want extra workers from the engine-wide
// budget (parallelism - 1 beyond the calling goroutine). Returns how
// many were actually claimed; 0 means run serial. Callers must
// releaseWorkers the same count when the phase completes.
func (e *Engine) reserveWorkers(want int) int {
	if want <= 0 {
		return 0
	}
	max := e.parallelism.Load() - 1
	for {
		cur := e.parExtra.Load()
		free := max - cur
		if free <= 0 {
			return 0
		}
		got := int64(want)
		if got > free {
			got = free
		}
		if e.parExtra.CompareAndSwap(cur, cur+got) {
			return int(got)
		}
	}
}

func (e *Engine) releaseWorkers(n int) {
	if n > 0 {
		e.parExtra.Add(-int64(n))
	}
}

// fanOut runs one phase on the calling goroutine plus up to width-1
// extra workers reserved from the engine-wide budget, and returns how
// many goroutines ran it. split learns that count first (1 = the caller
// alone: nothing reserved, no goroutine started) and returns how many
// work items the phase is cut into. Each goroutine then runs worker
// with its index (id 0 is the caller, which may use the statement's
// own machines) and a claim function that hands out item indexes in
// increasing order off one atomic cursor, reporting false once they run
// out. Workers keep their per-goroutine state in locals of worker, so a
// width-1 phase allocates its batch buffers on the caller's stack.
func (e *Engine) fanOut(width int, split func(nw int) int, worker func(id int, claim func() (int, bool))) int {
	extra := e.reserveWorkers(width - 1)
	defer e.releaseWorkers(extra)
	nw := extra + 1
	items := split(nw)
	var cursor atomic.Int64
	claim := func() (int, bool) {
		i := int(cursor.Add(1) - 1)
		return i, i < items
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(w, claim)
		}(w)
	}
	worker(0, claim)
	wg.Wait()
	return nw
}

// notePar records the widest fan-out any phase of the statement used,
// for the vm.parallel_queries / vm.parallel_workers metrics. Width 1 is
// serial and records nothing.
func (ctx *stmtCtx) notePar(nw int) {
	if nw > 1 && int64(nw) > ctx.parWorkers {
		ctx.parWorkers = int64(nw)
	}
}

// morselOut is one morsel's slot in the reorder buffer. Workers fill
// slots out of order; the gather walks them in morsel order so output
// rows, the first surfaced error, and the scan tally are byte-identical
// at every width.
type morselOut struct {
	rows     []types.Row
	scanned  int
	whereErr error
	projErr  error
}

// scanTable runs the compiled streaming full scan of tbl as of the
// statement snapshot: snapshot rows are pulled into a column batch and
// the compiled WHERE runs over ~1k lanes at a time. Only the columns
// the programs read are copied into vectors; version values (immutable
// under MVCC) are referenced, not copied, until a lane passes the
// filter. With proj set the projection is evaluated on the filled batch
// and output tuples are emitted directly. Matched rows land in rel.rows
// and the scan tally is counted.
//
// At width 1 one morsel spans the whole slot view and runs on the
// caller's machines; wider scans cut the view into morselSlots-long
// morsels claimed in order by the workers.
func (e *Engine) scanTable(tbl *storage.Table, rel *relation, prog *vm.Program, proj *scanProj, b *binder, nUser int) error {
	ctx := b.ctx
	view := tbl.View(ctx.snap)
	nSlots := view.Slots()
	kinds := batchKinds(rel.cols)
	used := scanUsedCols(prog, proj)
	needSys := false
	for _, c := range used {
		if c >= nUser {
			needSys = true
		}
	}

	span := nSlots
	var outs []morselOut
	// errFloor is the lowest morsel index that hit a WHERE error: a
	// one-morsel scan would have aborted inside it, so morsels above it
	// are dead weight. The cursor hands morsels out in increasing order,
	// so a worker whose claim lands above the floor can stop: no later
	// claim could lower it.
	var errFloor atomic.Int64
	nw := e.fanOut(e.parallelWidth(nSlots), func(nw int) int {
		if nw > 1 {
			span = morselSlots
		}
		morsels := 1
		if span > 0 {
			morsels = (nSlots + span - 1) / span
		}
		outs = make([]morselOut, morsels)
		errFloor.Store(int64(morsels))
		return morsels
	}, func(id int, claim func() (int, bool)) {
		m := vm.NewMachine(prog)
		m.Bind(b.args, b)
		wproj := proj
		if id > 0 {
			wproj = proj.clone(b)
		}
		batch := vm.NewBatch(kinds, used)
		var scratch types.Row
		if needSys {
			scratch = make(types.Row, nUser+2)
		}
		vals := make([]types.Row, 0, vm.BatchSize)
		tids := make([]int64, 0, vm.BatchSize)
		created := make([]int64, 0, vm.BatchSize)
		flush := func(out *morselOut) error {
			if len(vals) == 0 {
				return nil
			}
			if needSys {
				// The programs read the tid/created pseudo-columns:
				// splice them into a scratch row and fill row-at-a-time.
				batch.Reset()
				for i := range vals {
					copy(scratch, vals[i])
					scratch[nUser] = types.NewInt(tids[i])
					scratch[nUser+1] = types.NewInt(created[i])
					batch.Append(scratch)
				}
			} else {
				batch.Fill(vals)
			}
			lanes, err := m.Filter(batch)
			if err != nil {
				return err
			}
			// A projection-item error must not surface before a WHERE
			// error from a later row (the interpreter filters the whole
			// table before projecting anything), so it is held in the
			// morsel's slot until the gather.
			if len(lanes) > 0 && out.projErr == nil {
				if wproj != nil {
					out.projErr = wproj.emit(&out.rows, batch, lanes, vals, tids, created, nUser)
				} else {
					// One slab per batch instead of one allocation per
					// matched row.
					w := nUser + 2
					slab := make([]types.Value, len(lanes)*w)
					for k, i := range lanes {
						full := types.Row(slab[k*w : (k+1)*w : (k+1)*w])
						copy(full, vals[i])
						full[nUser] = types.NewInt(tids[i])
						full[nUser+1] = types.NewInt(created[i])
						out.rows = append(out.rows, full)
					}
				}
			}
			e.countVM(batch.Len())
			vals, tids, created = vals[:0], tids[:0], created[:0]
			return nil
		}
		for mi, ok := claim(); ok && int64(mi) <= errFloor.Load(); mi, ok = claim() {
			out := &outs[mi]
			for it := view.IterateRange(mi*span, (mi+1)*span); ; {
				sr, more := it.Next()
				if !more {
					break
				}
				out.scanned++
				vals = append(vals, sr.Values)
				tids = append(tids, sr.TID)
				created = append(created, sr.Created)
				if len(vals) == vm.BatchSize {
					if out.whereErr = flush(out); out.whereErr != nil {
						break
					}
				}
			}
			if out.whereErr == nil {
				out.whereErr = flush(out)
			}
			if out.whereErr != nil {
				vals, tids, created = vals[:0], tids[:0], created[:0]
				// CAS-min: only lower the floor.
				for {
					cur := errFloor.Load()
					if int64(mi) >= cur || errFloor.CompareAndSwap(cur, int64(mi)) {
						break
					}
				}
			}
		}
	})

	// Gather in morsel order. A WHERE error aborts without counting the
	// tally; a projection error is surfaced only when no morsel hit a
	// WHERE error.
	for i := range outs {
		if outs[i].whereErr != nil {
			return outs[i].whereErr
		}
	}
	total, scanned := 0, 0
	for i := range outs {
		if outs[i].projErr != nil {
			return outs[i].projErr
		}
		total += len(outs[i].rows)
		scanned += outs[i].scanned
	}
	if len(outs) == 1 {
		rel.rows = outs[0].rows
	} else {
		rel.rows = make([]types.Row, 0, total)
		for i := range outs {
			rel.rows = append(rel.rows, outs[i].rows...)
		}
	}
	e.countScanned(ctx, scanned)
	if nw > 1 {
		ctx.notePar(nw)
		if e.reg.Enabled() {
			e.mParMorsels.Add(int64(len(outs)))
		}
	}
	return nil
}

// scanUsedCols unions the columns read by the WHERE program and any
// pushed-down projection programs.
func scanUsedCols(prog *vm.Program, proj *scanProj) []int {
	usedSet := map[int]bool{}
	for _, c := range prog.Cols() {
		usedSet[c] = true
	}
	if proj != nil {
		for _, p := range proj.progs {
			if p == nil {
				continue
			}
			for _, c := range p.Cols() {
				usedSet[c] = true
			}
		}
	}
	used := make([]int, 0, len(usedSet))
	for c := range usedSet {
		used = append(used, c)
	}
	sort.Ints(used)
	return used
}

// clone returns a worker-private copy of a scan projection: programs
// and bare-column maps are shared (immutable), machines are per-worker
// (vm.Machine is not goroutine-safe).
func (sp *scanProj) clone(b *binder) *scanProj {
	if sp == nil {
		return nil
	}
	c := &scanProj{
		names:    sp.names,
		progs:    sp.progs,
		bare:     sp.bare,
		machines: make([]*vm.Machine, len(sp.progs)),
		vecs:     make([]*vm.Vec, len(sp.progs)),
	}
	for i, p := range sp.progs {
		if p != nil {
			c.machines[i] = vm.NewMachine(p)
			c.machines[i].Bind(b.args, b)
		}
	}
	return c
}

// evalVecsRange runs several compiled programs over rel.rows[lo:hi)
// chunk by chunk, invoking sink with each chunk's result vectors (valid
// only during the callback) and the chunk's absolute start index.
// Workers call it over disjoint ranges, each with its own machines.
func (e *Engine) evalVecsRange(progs []*vm.Program, rel *relation, b *binder, lo, hi int, sink func(start, count int, vecs []*vm.Vec) error) error {
	machines := make([]*vm.Machine, len(progs))
	usedSet := map[int]bool{}
	for i, p := range progs {
		machines[i] = vm.NewMachine(p)
		machines[i].Bind(b.args, b)
		for _, c := range p.Cols() {
			usedSet[c] = true
		}
	}
	used := make([]int, 0, len(usedSet))
	for c := range usedSet {
		used = append(used, c)
	}
	sort.Ints(used)
	batch := vm.NewBatch(batchKinds(rel.cols), used)
	vecs := make([]*vm.Vec, len(progs))
	for start := lo; start < hi; start += vm.BatchSize {
		end := start + vm.BatchSize
		if end > hi {
			end = hi
		}
		batch.Fill(rel.rows[start:end])
		for i := start; rel.errs != nil && i < end; i++ {
			for c, err := range rel.errs[i] {
				if err != nil {
					batch.SetErr(c, i-start, err)
				}
			}
		}
		for i, mch := range machines {
			vecs[i] = mch.Eval(batch)
		}
		e.countVM(batch.Len())
		if err := sink(start, batch.Len(), vecs); err != nil {
			return err
		}
	}
	return nil
}

// contiguousRanges splits [0, n) into nw near-equal ranges aligned to
// batch boundaries, so no batch straddles two workers. nw == 1 yields
// the single range [0, n).
func contiguousRanges(n, nw int) [][2]int {
	per := (n/nw + vm.BatchSize) / vm.BatchSize * vm.BatchSize
	var rs [][2]int
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		rs = append(rs, [2]int{lo, hi})
	}
	return rs
}

// evalKeys computes the group key of every row of rel through the
// compiled key programs, over contiguous row ranges. Error selection:
// each range records its first (row, expression) error and stops; the
// lowest range's error is the one a single range would have surfaced
// first.
func (e *Engine) evalKeys(progs []*vm.Program, rel *relation, b *binder, keys []string) error {
	n := len(rel.rows)
	var ranges [][2]int
	var errs []error
	nw := e.fanOut(e.parallelWidth(n), func(nw int) int {
		ranges = contiguousRanges(n, nw)
		errs = make([]error, len(ranges))
		return len(ranges)
	}, func(_ int, claim func() (int, bool)) {
		keyVals := make(types.Row, len(progs))
		for wi, ok := claim(); ok; wi, ok = claim() {
			errs[wi] = e.evalVecsRange(progs, rel, b, ranges[wi][0], ranges[wi][1], func(start, count int, vecs []*vm.Vec) error {
				for ri := 0; ri < count; ri++ {
					for gi := range progs {
						if err := vecs[gi].Err(ri); err != nil {
							return err
						}
						keyVals[gi] = vecs[gi].Value(ri)
					}
					keys[start+ri] = types.RowKey(keyVals)
				}
				return nil
			})
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	b.ctx.notePar(nw)
	return nil
}

// ---------------------------------------------------------------------------
// Column-native aggregate folds.

type aggOp uint8

const (
	aggCount aggOp = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

func aggOpOf(name string) (aggOp, bool) {
	switch name {
	case "COUNT":
		return aggCount, true
	case "SUM":
		return aggSum, true
	case "AVG":
		return aggAvg, true
	case "MIN":
		return aggMin, true
	case "MAX":
		return aggMax, true
	}
	return 0, false
}

// Comparability classes for MIN/MAX merge safety. types.Compare never
// errors between two values of the same class (INT and FLOAT form one
// numeric class); any cross-class or unknown-kind comparison may, so a
// fold that saw mixed classes cannot be merged from partials — a
// one-range fold's error depends on accumulation order.
const (
	clsNumeric uint8 = iota
	clsBool
	clsString
	clsTime
	clsBytes
	clsOther
)

func classOf(v types.Value) uint8 {
	switch v.LaneKind() {
	case types.KindInt, types.KindFloat:
		return clsNumeric
	case types.KindBool:
		return clsBool
	case types.KindString:
		return clsString
	case types.KindTime:
		return clsTime
	case types.KindBytes:
		return clsBytes
	}
	return clsOther
}

// aggState is one (aggregate item, group) accumulator, folded directly
// from typed vector lanes — no boxed per-row value cache. It is the one
// compiled fold kernel: every simple aggregate item, DISTINCT or not,
// folds through it. argErr is the first lane error in row order (what
// the interpreter's collect loop would surface, always beating fold
// errors); foldErr is the first error the fold itself raised (AsFloat
// on a non-numeric SUM operand, cross-class Compare). notAllInt / mixed
// mark states whose partials cannot be merged across row ranges (float
// addition is not associative; cross-class Compare errors are
// order-dependent). seen is a DISTINCT item's set of folded values.
type aggState struct {
	cnt       int64
	si        int64
	sf        float64
	best      types.Value
	argErr    error
	foldErr   error
	seen      map[string]struct{}
	have      bool
	notAllInt bool
	mixed     bool
	class     uint8
}

// step folds one MIN/MAX operand through the generic Compare path.
func (st *aggState) step(op aggOp, v types.Value) {
	cls := classOf(v)
	if !st.have {
		st.best, st.class, st.have = v, cls, true
		if cls == clsOther {
			st.mixed = true
		}
		return
	}
	if cls != st.class || cls == clsOther {
		st.mixed = true
	}
	c, err := types.Compare(v, st.best)
	if err != nil {
		st.foldErr = err
		return
	}
	if (op == aggMin && c < 0) || (op == aggMax && c > 0) {
		st.best = v
	}
}

// result finalizes a state into the aggregate's value: NULL on empty,
// int/float promotion, argument errors before fold errors — the
// semantics of the reference evaluator's foldAggregate.
func (st *aggState) result(op aggOp) (types.Value, error) {
	if st.argErr != nil {
		return types.Null, st.argErr
	}
	if st.foldErr != nil {
		return types.Null, st.foldErr
	}
	switch op {
	case aggCount:
		return types.NewInt(st.cnt), nil
	case aggSum:
		if st.cnt == 0 {
			return types.Null, nil
		}
		if !st.notAllInt {
			return types.NewInt(st.si), nil
		}
		return types.NewFloat(st.sf + float64(st.si)), nil
	case aggAvg:
		if st.cnt == 0 {
			return types.Null, nil
		}
		return types.NewFloat((st.sf + float64(st.si)) / float64(st.cnt)), nil
	default: // aggMin, aggMax
		if !st.have {
			return types.Null, nil
		}
		return st.best, nil
	}
}

// aggFold folds every aggregate call of a statement per group. calls
// describes each call; the folded ones (one argument, no star) own a
// program and a [call][group] slab of states.
type aggFold struct {
	calls    []aggCall
	ops      []aggOp
	distinct []bool
	progs    []*vm.Program
	states   []aggState
	nGroups  int
}

// aggCall is one aggregate call's fold plan: a malformed call fails
// every group with err, COUNT(*) (fold < 0) counts the group, anything
// else reads fold states [fold*nGroups, (fold+1)*nGroups).
type aggCall struct {
	op   aggOp
	err  error
	fold int
}

// result is call k's value for group gi of the given size.
func (f *aggFold) result(k, gi, size int) (types.Value, error) {
	c := f.calls[k]
	switch {
	case c.err != nil:
		return types.Null, c.err
	case c.fold < 0:
		return types.NewInt(int64(size)), nil
	}
	return f.states[c.fold*f.nGroups+gi].result(c.op)
}

// buildAggFold plans every aggregate call and folds the argument of
// each well-formed one over rel.rows column-natively from typed lanes.
func (e *Engine) buildAggFold(calls []*sqltext.FuncCall, rel *relation, b *binder, rowGroup []int32, nGroups int) *aggFold {
	f := &aggFold{calls: make([]aggCall, len(calls)), nGroups: nGroups}
	for k, fc := range calls {
		name := strings.ToUpper(fc.Name)
		op, _ := aggOpOf(name)
		c := aggCall{op: op, fold: -1}
		switch {
		case fc.Star && op == aggCount:
		case fc.Star:
			c.err = fmt.Errorf("engine: %s(*) is not valid", name)
		case len(fc.Args) != 1:
			c.err = fmt.Errorf("engine: %s takes one argument", name)
		default:
			c.fold = len(f.ops)
			f.ops = append(f.ops, op)
			f.distinct = append(f.distinct, fc.Distinct)
			f.progs = append(f.progs, e.compiledProg(fc.Args[0], rel))
		}
		f.calls[k] = c
	}
	if len(rel.rows) == 0 || len(f.ops) == 0 || nGroups == 0 {
		f.states = make([]aggState, len(f.ops)*nGroups)
		return f
	}
	f.states = e.foldStates(f, rel, b, rowGroup)
	return f
}

// mergeSafe reports whether f's partials can be merged across row
// ranges given the arguments' statically inferred kinds: integer sums
// are associative, single-kind MIN/MAX never hits a cross-class
// Compare. Kinds are advisory (columns can promote), so the runtime
// notAllInt/mixed flags remain the backstop. A DISTINCT item's seen set
// spans the whole input, so it is always folded as one range.
func (f *aggFold) mergeSafe(kinds []types.Kind) bool {
	for i, op := range f.ops {
		if f.distinct[i] {
			return false
		}
		switch op {
		case aggCount:
		case aggSum, aggAvg:
			if f.progs[i].StaticKind(kinds) != types.KindInt {
				return false
			}
		default:
			if f.progs[i].StaticKind(kinds) == types.KindNull {
				return false
			}
		}
	}
	return true
}

// foldStates folds f over contiguous row ranges and merges the partials
// in range order. A single range (width 1, too many groups, or items
// that are not merge-safe) is the fold itself. When a merged state
// turns out merge-unsafe at runtime (float SUM, mixed-class MIN/MAX),
// the input is refolded as one range, which is always exact.
func (e *Engine) foldStates(f *aggFold, rel *relation, b *binder, rowGroup []int32) []aggState {
	n := len(rel.rows)
	width := 1
	if f.nGroups <= parallelGroupCap && f.mergeSafe(batchKinds(rel.cols)) {
		width = e.parallelWidth(n)
	}
	var ranges [][2]int
	var partials [][]aggState
	nw := e.fanOut(width, func(nw int) int {
		ranges = contiguousRanges(n, nw)
		partials = make([][]aggState, len(ranges))
		return len(ranges)
	}, func(_ int, claim func() (int, bool)) {
		for wi, ok := claim(); ok; wi, ok = claim() {
			partials[wi] = e.foldRange(f, rel, b, ranges[wi][0], ranges[wi][1], rowGroup)
		}
	})
	b.ctx.notePar(nw)
	merged := partials[0]
	if len(partials) == 1 {
		return merged
	}
	for _, part := range partials[1:] {
		mergeAggStates(merged, part, f.ops, f.nGroups)
	}
	for i := range merged {
		st := &merged[i]
		op := f.ops[i/f.nGroups]
		if ((op == aggSum || op == aggAvg) && st.notAllInt) || ((op == aggMin || op == aggMax) && st.mixed) {
			return e.foldRange(f, rel, b, 0, n, rowGroup)
		}
	}
	return merged
}

// mergeAggStates folds src's partial states (a later contiguous row
// range) into dst's in range order. Error selection mirrors a one-range
// fold: the earliest range's argument error wins, fold errors for
// integer sums are range-independent, and MIN/MAX partials merge by a
// single Compare against the accumulated best (exact for single-class
// folds; mixed-class folds are flagged and refolded as one range).
// DISTINCT states never reach it (see mergeSafe).
func mergeAggStates(dst, src []aggState, ops []aggOp, nGroups int) {
	for ci, op := range ops {
		for g := 0; g < nGroups; g++ {
			d := &dst[ci*nGroups+g]
			s := &src[ci*nGroups+g]
			if d.argErr == nil {
				d.argErr = s.argErr
			}
			if d.foldErr == nil {
				d.foldErr = s.foldErr
			}
			d.cnt += s.cnt
			d.si += s.si
			d.sf += s.sf
			d.notAllInt = d.notAllInt || s.notAllInt
			d.mixed = d.mixed || s.mixed
			if op != aggMin && op != aggMax || !s.have {
				continue
			}
			if !d.have {
				d.best, d.class, d.have = s.best, s.class, true
				continue
			}
			if s.class != d.class || s.class == clsOther {
				d.mixed = true
			}
			c, err := types.Compare(s.best, d.best)
			if err != nil {
				d.mixed = true
				continue
			}
			if (op == aggMin && c < 0) || (op == aggMax && c > 0) {
				d.best = s.best
			}
		}
	}
}

// foldRange folds every item of f over rel.rows[lo:hi), column-native:
// typed int/float lanes fold without boxing a single value.
func (e *Engine) foldRange(f *aggFold, rel *relation, b *binder, lo, hi int, rowGroup []int32) []aggState {
	states := make([]aggState, len(f.ops)*f.nGroups)
	_ = e.evalVecsRange(f.progs, rel, b, lo, hi, func(start, count int, vecs []*vm.Vec) error {
		for ci := range f.ops {
			foldVec(states[ci*f.nGroups:(ci+1)*f.nGroups], f.ops[ci], f.distinct[ci], vecs[ci], rowGroup, start, count)
		}
		return nil
	})
	return states
}

// foldVec folds one result vector into per-group states. Per lane: a
// state that already holds an argument error is done; a lane error
// becomes the state's argument error (first in row order, matching the
// interpreter's collect loop, which surfaces any argument error before
// folding); a state with a fold error keeps watching for argument
// errors only; NULL lanes are skipped, and so are DISTINCT repeats —
// the remaining values fold in first-occurrence order, exactly the
// deduplicated sequence the reference evaluator's foldAggregate sees.
func foldVec(states []aggState, op aggOp, distinct bool, vec *vm.Vec, rowGroup []int32, start, count int) {
	kind := vec.Kind()
	for ri := 0; ri < count; ri++ {
		st := &states[0]
		if rowGroup != nil {
			st = &states[rowGroup[start+ri]]
		}
		if st.argErr != nil {
			continue
		}
		if err := vec.Err(ri); err != nil {
			st.argErr = err
			continue
		}
		if st.foldErr != nil {
			continue
		}
		if vec.IsNull(ri) {
			continue
		}
		if distinct {
			k := vec.Value(ri).HashKey()
			if _, dup := st.seen[k]; dup {
				continue
			}
			if st.seen == nil {
				st.seen = map[string]struct{}{}
			}
			st.seen[k] = struct{}{}
		}
		switch op {
		case aggCount:
			st.cnt++
		case aggSum, aggAvg:
			switch kind {
			case types.KindInt:
				st.si += vec.Int(ri)
				st.cnt++
			case types.KindFloat:
				st.sf += vec.Float(ri)
				st.cnt++
				st.notAllInt = true
			default:
				v := vec.Value(ri)
				if v.LaneKind() == types.KindInt {
					st.si += v.LaneInt()
					st.cnt++
					continue
				}
				fl, err := v.AsFloat()
				if err != nil {
					st.foldErr = err
					continue
				}
				st.sf += fl
				st.cnt++
				st.notAllInt = true
			}
		case aggMin, aggMax:
			switch kind {
			case types.KindInt:
				x := vec.Int(ri)
				if st.have && st.class == clsNumeric && st.best.LaneKind() == types.KindInt {
					// Typed compare; strict replacement keeps the first
					// of equals, and cmpInt agrees with < and >.
					if (op == aggMin && x < st.best.LaneInt()) || (op == aggMax && x > st.best.LaneInt()) {
						st.best = types.NewInt(x)
					}
					continue
				}
				st.step(op, types.NewInt(x))
			case types.KindFloat:
				x := vec.Float(ri)
				if st.have && st.class == clsNumeric && st.best.LaneKind() == types.KindFloat {
					// Strict < and > agree with types.Compare's cmpFloat
					// for NaN too: NaN compares equal, first value kept.
					if (op == aggMin && x < st.best.LaneFloat()) || (op == aggMax && x > st.best.LaneFloat()) {
						st.best = types.NewFloat(x)
					}
					continue
				}
				st.step(op, types.NewFloat(x))
			default:
				st.step(op, vec.Value(ri))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Hash-join build.

// joinIndex maps a join key to the right-side row indexes carrying it,
// in ascending row order, as hash partitions (one at width 1). Each
// partition builder scans the precomputed keys ascending, so per-key
// index lists keep row order at every width and the probe is
// byte-identical.
type joinIndex struct {
	parts []map[string][]int
}

func (ix *joinIndex) lookup(k string) []int {
	return ix.parts[partOf(k, len(ix.parts))][k]
}

// partOf assigns a join key to one of n hash partitions (FNV-1a).
func partOf(k string, n int) int {
	if n == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// joinKey builds the equality key for a row, or ok=false when any key
// column is NULL (NULL never joins).
func joinKey(row types.Row, cols []int) (string, bool) {
	key := make(types.Row, len(cols))
	for j, c := range cols {
		if row[c].IsNull() {
			return "", false
		}
		key[j] = row[c]
	}
	return types.RowKey(key), true
}

// buildJoinIndex builds the right-side hash index in two phases: keys
// and partition assignments over contiguous row ranges, then one
// builder per partition.
func (e *Engine) buildJoinIndex(rows []types.Row, eqR []int, ctx *stmtCtx) *joinIndex {
	n := len(rows)
	keys := make([]string, n)
	part := make([]int32, n) // -1 = NULL key, never joins
	var ranges [][2]int
	nParts := 1
	nw := e.fanOut(e.parallelWidth(n), func(nw int) int {
		nParts = nw
		ranges = contiguousRanges(n, nw)
		return len(ranges)
	}, func(_ int, claim func() (int, bool)) {
		for wi, ok := claim(); ok; wi, ok = claim() {
			for i := ranges[wi][0]; i < ranges[wi][1]; i++ {
				k, ok := joinKey(rows[i], eqR)
				if !ok {
					part[i] = -1
					continue
				}
				keys[i] = k
				part[i] = int32(partOf(k, nParts))
			}
		}
	})

	// One builder per partition scans rows ascending and keeps only its
	// own hash class: insertion order per key is ascending.
	ix := &joinIndex{parts: make([]map[string][]int, nParts)}
	e.fanOut(nParts, func(int) int { return nParts }, func(_ int, claim func() (int, bool)) {
		for p, ok := claim(); ok; p, ok = claim() {
			m := make(map[string][]int, n/nParts)
			for i := 0; i < n; i++ {
				if int(part[i]) == p {
					m[keys[i]] = append(m[keys[i]], i)
				}
			}
			ix.parts[p] = m
		}
	})
	ctx.notePar(nw)
	return ix
}
