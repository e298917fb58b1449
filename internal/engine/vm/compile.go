package vm

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"ediflow/internal/sqltext"
	"ediflow/internal/types"
)

// ScalarFunc evaluates a scalar function over already-evaluated
// arguments, exactly like the interpreter's callScalar: the function is
// responsible for its own NULL handling. The args slice is reused
// between lanes and must not be retained.
type ScalarFunc func(args []types.Value) (types.Value, error)

// Env is the compile-time environment the engine supplies: how column
// references and aggregate calls resolve against the relation the
// program will run over, which scalar functions exist, and the engine's
// exact error texts. A failed lookup compiles to that error, carried by
// each lane that reaches the node, so lowering is total.
type Env struct {
	// Resolve maps a (qualifier, column) reference to a column index, or
	// returns the error an unknown or ambiguous reference raises.
	Resolve func(table, column string) (col int, err error)
	// Func resolves a scalar function by upper-cased name; an unknown
	// name gets an implementation raising the engine's error, after the
	// arguments. It is baked into the program, so the engine must purge
	// compiled programs when its function registry changes.
	Func func(name string) ScalarFunc
	// Aggregate maps an aggregate call to the column holding its
	// per-group result, or returns the error an aggregate raises outside
	// GROUP BY context.
	Aggregate func(call *sqltext.FuncCall) (col int, err error)
	// MissingParam builds the error for a parameter index with no bound
	// argument.
	MissingParam func(idx int) error
	// ScalarRows builds the error for a scalar subquery returning n rows
	// (n > 1, or one row wider than a column); InWidth is the error for
	// an IN subquery whose rows are not one column wide.
	ScalarRows func(n int) error
	InWidth    error
}

// Subqueries evaluates a program's uncorrelated subqueries, one result
// per statement: every machine of the statement, morsel workers
// included, shares one implementation, so it must be safe for concurrent
// use. A machine asks once a lane reaches the subquery, and memoizes.
type Subqueries interface {
	Rows(q *sqltext.Select) ([]types.Row, error)
}

type opcode uint8

const (
	opCol       opcode = iota // dst = batch column imm
	opConst                   // dst = broadcast of consts[imm]
	opParam                   // dst = broadcast of args[imm]
	opCmp                     // dst = cmp(a, b) holds per imm (cmpEq..cmpGe)
	opAdd                     // dst = a + b
	opSub                     // dst = a - b
	opMul                     // dst = a * b
	opDiv                     // dst = a / b
	opMod                     // dst = a % b
	opConcat                  // dst = a || b
	opNeg                     // dst = -a
	opNot                     // dst = NOT a (three-valued)
	opAnd                     // dst = a AND b (three-valued)
	opOr                      // dst = a OR b (three-valued)
	opIsNull                  // dst = a IS [NOT] NULL (imm = not)
	opLike                    // dst = a [NOT] LIKE b (imm = not)
	opBetween                 // dst = a [NOT] BETWEEN b AND c (imm = not)
	opInList                  // dst = a [NOT] IN (const list) (set spec)
	opInExpr                  // dst = a [NOT] IN (args regs) (imm = not)
	opCall                    // dst = fn(args regs)
	opCoalesce                // dst = first non-NULL of args regs
	opCase                    // dst = CASE: args = cond/result reg pairs, a = else reg or -1
	opCaseMatch               // dst = (a == b) for operand-form CASE arms
	opErr                     // dst = err in every lane
	opScalarSub               // dst = broadcast of scalar subquery subVals[imm]
	opExistsSub               // dst = [NOT] EXISTS subVals[imm] (c = not)
	opInSub                   // dst = a [NOT] IN subquery, resolved into sets[imm]
)

// comparison immediates for opCmp, in terms of types.Compare's result.
const (
	cmpEq = iota // == 0
	cmpNe        // != 0
	cmpLt        // < 0
	cmpLe        // <= 0
	cmpGt        // > 0
	cmpGe        // >= 0
)

type inst struct {
	op      opcode
	dst     int
	a, b, c int
	imm     int
	str     string // literal LIKE needle for specialized shapes
	args    []int
	fn      ScalarFunc
	set     *inListSpec
	err     error           // opErr's error
	sub     *sqltext.Select // subquery of opScalarSub/opExistsSub/opInSub
}

// Specialized LIKE shapes, packed into opLike's imm above the NOT bit
// (imm = not | shape<<1). likeGeneric runs the rune-wise backtracking
// matcher against the pattern register; the rest compare the operand
// against a literal needle with direct string kernels.
const (
	likeGeneric = iota
	likeExact
	likePrefix
	likeSuffix
	likeContains
)

// classifyLike recognizes literal patterns whose wildcards reduce to
// exact/prefix/suffix/substring string comparison. The needle must be
// valid UTF-8 and free of U+FFFD: the rune-wise matcher decodes invalid
// operand bytes to RuneError, and only under those two conditions is a
// byte-wise comparison against the needle equivalent to the rune-wise
// one for every operand, valid UTF-8 or not.
func classifyLike(pat string) (shape int, needle string, ok bool) {
	if strings.ContainsRune(pat, '_') {
		return 0, "", false
	}
	switch {
	case !strings.Contains(pat, "%"):
		shape, needle = likeExact, pat
	case strings.HasSuffix(pat, "%") && !strings.Contains(pat[:len(pat)-1], "%"):
		shape, needle = likePrefix, pat[:len(pat)-1]
	case strings.HasPrefix(pat, "%") && !strings.Contains(pat[1:], "%"):
		shape, needle = likeSuffix, pat[1:]
	case len(pat) >= 2 && strings.HasPrefix(pat, "%") && strings.HasSuffix(pat, "%") &&
		!strings.Contains(pat[1:len(pat)-1], "%"):
		shape, needle = likeContains, pat[1:len(pat)-1]
	default:
		return 0, "", false
	}
	if !utf8.ValidString(needle) || strings.ContainsRune(needle, utf8.RuneError) {
		return 0, "", false
	}
	return shape, needle, true
}

// inListSpec describes an IN list whose elements are all literals or
// parameters. The runtime set is built at Bind time, when parameter
// values are known.
type inListSpec struct {
	elems []inElem
	not   bool
}

// inElem is one element of a const IN list: a literal value, or a
// parameter index (param >= 0).
type inElem struct {
	param int // -1 for literal
	val   types.Value
}

// Program is a compiled expression: a flat instruction sequence over
// virtual registers, plus the constants, IN-list specs, and parameter
// error builder the machine needs at bind time.
type Program struct {
	insts    []inst
	nregs    int
	consts   []types.Value
	nsets    int
	nsubs    int
	result   int
	cols     []int
	maxParam int // highest parameter index referenced + 1
	// The engine's error builders, kept apart from the Env, whose
	// resolvers may hold on to a whole relation.
	missingParam func(idx int) error
	scalarRows   func(n int) error
	inWidth      error
}

// Cols returns the sorted set of column indexes the program reads; the
// engine fills only these in each batch.
func (p *Program) Cols() []int { return p.cols }

// BareCol reports whether the program is a single column load — a bare
// column reference. Such programs need no batch at all: the caller can
// index the source row directly.
func (p *Program) BareCol() (int, bool) {
	if len(p.insts) == 1 && p.insts[0].op == opCol {
		return p.insts[0].imm, true
	}
	return 0, false
}

// StaticKind infers the kind every non-NULL, non-error lane of the
// program's result is guaranteed to have, given the declared column
// kinds, or KindNull when the kind cannot be pinned statically
// (parameters, function calls, mixed CASE arms). Callers that need the
// guarantee to be exact — e.g. the parallel aggregation gate, whose
// int-SUM partials are associative only if every lane really is an int
// — must still verify the executed vector's Kind at runtime, because
// declared column kinds are advisory for untyped sources.
func (p *Program) StaticKind(kinds []types.Kind) types.Kind {
	reg := make([]types.Kind, p.nregs)
	unknown := types.KindNull
	numeric := func(a, b types.Kind) types.Kind {
		switch {
		case a == types.KindInt && b == types.KindInt:
			return types.KindInt
		case (a == types.KindInt || a == types.KindFloat) && (b == types.KindInt || b == types.KindFloat):
			return types.KindFloat
		}
		return unknown
	}
	for i := range p.insts {
		ins := &p.insts[i]
		k := unknown
		switch ins.op {
		case opCol:
			if ins.imm < len(kinds) {
				k = kinds[ins.imm]
			}
		case opConst:
			k = p.consts[ins.imm].Kind()
		case opAdd, opSub, opMul:
			k = numeric(reg[ins.a], reg[ins.b])
		case opDiv:
			// Integer division stays integral; any float operand floats.
			k = numeric(reg[ins.a], reg[ins.b])
		case opMod:
			if reg[ins.a] == types.KindInt && reg[ins.b] == types.KindInt {
				k = types.KindInt
			}
		case opNeg:
			if reg[ins.a] == types.KindInt || reg[ins.a] == types.KindFloat {
				k = reg[ins.a]
			}
		case opConcat:
			k = types.KindString
		case opCmp, opNot, opAnd, opOr, opIsNull, opLike, opBetween, opInList, opInExpr, opCaseMatch, opExistsSub, opInSub:
			k = types.KindBool
		}
		reg[ins.dst] = k
	}
	return reg[p.result]
}

// Compile lowers an expression tree into a Program. Lowering is total:
// what the reference evaluator would raise for a node is compiled into
// an instruction carrying that error per lane.
func Compile(x sqltext.Expr, env *Env) *Program {
	c := &compiler{env: env, p: &Program{missingParam: env.MissingParam, scalarRows: env.ScalarRows, inWidth: env.InWidth}}
	c.p.result = c.expr(x)
	for col := range c.colSet {
		c.p.cols = append(c.p.cols, col)
	}
	sort.Ints(c.p.cols)
	return c.p
}

type compiler struct {
	env    *Env
	p      *Program
	colSet map[int]bool
}

func (c *compiler) reg() int {
	r := c.p.nregs
	c.p.nregs++
	return r
}

func (c *compiler) emit(i inst) int {
	i.dst = c.reg()
	c.p.insts = append(c.p.insts, i)
	return i.dst
}

func (c *compiler) col(col int) int {
	if c.colSet == nil {
		c.colSet = map[int]bool{}
	}
	c.colSet[col] = true
	return c.emit(inst{op: opCol, imm: col})
}

// fail emits an instruction raising err in every lane.
func (c *compiler) fail(err error) int {
	return c.emit(inst{op: opErr, err: err})
}

func (c *compiler) param(idx int) {
	if idx+1 > c.p.maxParam {
		c.p.maxParam = idx + 1
	}
}

func (c *compiler) subquery(op opcode, q *sqltext.Select, not bool) int {
	idx := c.p.nsubs
	c.p.nsubs++
	return c.emit(inst{op: op, imm: idx, c: boolImm(not), sub: q})
}

func (c *compiler) expr(x sqltext.Expr) int {
	switch x := x.(type) {
	case *sqltext.Literal:
		return c.constReg(x.Value)
	case *sqltext.ColumnRef:
		col, err := c.env.Resolve(x.Table, x.Column)
		if err != nil {
			return c.fail(err)
		}
		return c.col(col)
	case *sqltext.Param:
		c.param(x.Index)
		return c.emit(inst{op: opParam, imm: x.Index})
	case *sqltext.Unary:
		a := c.expr(x.X)
		if x.Op == "NOT" {
			return c.emit(inst{op: opNot, a: a})
		}
		return c.emit(inst{op: opNeg, a: a})
	case *sqltext.Binary:
		return c.binary(x)
	case *sqltext.FuncCall:
		return c.call(x)
	case *sqltext.InExpr:
		return c.in(x)
	case *sqltext.IsNull:
		return c.emit(inst{op: opIsNull, a: c.expr(x.X), imm: boolImm(x.Not)})
	case *sqltext.Like:
		a := c.expr(x.X)
		if lit, ok := x.Pattern.(*sqltext.Literal); ok && lit.Value.Kind() == types.KindString {
			if kind, needle, ok := classifyLike(lit.Value.AsString()); ok {
				// Specialized shape: the pattern register is never
				// materialized, the kernel compares against the needle
				// directly. The shape is packed above the NOT bit.
				return c.emit(inst{op: opLike, a: a, b: -1, imm: boolImm(x.Not) | kind<<1, str: needle})
			}
		}
		return c.emit(inst{op: opLike, a: a, b: c.expr(x.Pattern), imm: boolImm(x.Not)})
	case *sqltext.Between:
		a := c.expr(x.X)
		lo := c.expr(x.Lo)
		hi := c.expr(x.Hi)
		return c.emit(inst{op: opBetween, a: a, b: lo, c: hi, imm: boolImm(x.Not)})
	case *sqltext.CaseExpr:
		return c.caseExpr(x)
	case *sqltext.Subquery:
		return c.subquery(opScalarSub, x.Query, false)
	case *sqltext.Exists:
		return c.subquery(opExistsSub, x.Query, x.Not)
	default:
		return c.fail(fmt.Errorf("vm: cannot evaluate %T", x))
	}
}

func (c *compiler) constReg(v types.Value) int {
	idx := len(c.p.consts)
	c.p.consts = append(c.p.consts, v)
	return c.emit(inst{op: opConst, imm: idx})
}

func (c *compiler) binary(x *sqltext.Binary) int {
	a := c.expr(x.L)
	b := c.expr(x.R)
	switch x.Op {
	case "AND":
		return c.emit(inst{op: opAnd, a: a, b: b})
	case "OR":
		return c.emit(inst{op: opOr, a: a, b: b})
	case "+":
		return c.emit(inst{op: opAdd, a: a, b: b})
	case "-":
		return c.emit(inst{op: opSub, a: a, b: b})
	case "*":
		return c.emit(inst{op: opMul, a: a, b: b})
	case "/":
		return c.emit(inst{op: opDiv, a: a, b: b})
	case "%":
		return c.emit(inst{op: opMod, a: a, b: b})
	case "||":
		return c.emit(inst{op: opConcat, a: a, b: b})
	case "=":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpEq})
	case "!=":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpNe})
	case "<":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpLt})
	case "<=":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpLe})
	case ">":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpGt})
	case ">=":
		return c.emit(inst{op: opCmp, a: a, b: b, imm: cmpGe})
	default:
		// Unreachable from parsed SQL: the parser emits only the
		// operators above.
		return c.fail(fmt.Errorf("engine: unknown operator %q", x.Op))
	}
}

func (c *compiler) call(x *sqltext.FuncCall) int {
	if sqltext.IsAggregateName(x.Name) {
		col, err := c.env.Aggregate(x)
		if err != nil {
			return c.fail(err)
		}
		return c.col(col)
	}
	args := make([]int, 0, len(x.Args))
	for _, a := range x.Args {
		args = append(args, c.expr(a))
	}
	name := strings.ToUpper(x.Name)
	if name == "COALESCE" {
		// COALESCE short-circuits per the interpreter's evalFunc: lanes
		// take the first non-NULL argument in order.
		return c.emit(inst{op: opCoalesce, args: args})
	}
	return c.emit(inst{op: opCall, args: args, fn: c.env.Func(name)})
}

func (c *compiler) in(x *sqltext.InExpr) int {
	a := c.expr(x.X)
	spec := &inListSpec{not: x.Not}
	if x.Query != nil {
		idx := c.p.nsets
		c.p.nsets++
		return c.emit(inst{op: opInSub, a: a, imm: idx, set: spec, sub: x.Query})
	}
	// Const list: literals and parameters only, matching the
	// interpreter's memoized-set path.
	for _, el := range x.List {
		switch el := el.(type) {
		case *sqltext.Literal:
			spec.elems = append(spec.elems, inElem{param: -1, val: el.Value})
		case *sqltext.Param:
			c.param(el.Index)
			spec.elems = append(spec.elems, inElem{param: el.Index})
		default:
			regs := make([]int, 0, len(x.List))
			for _, el := range x.List {
				regs = append(regs, c.expr(el))
			}
			return c.emit(inst{op: opInExpr, a: a, args: regs, imm: boolImm(x.Not)})
		}
	}
	idx := c.p.nsets
	c.p.nsets++
	return c.emit(inst{op: opInList, a: a, imm: idx, set: spec})
}

func (c *compiler) caseExpr(x *sqltext.CaseExpr) int {
	operand := -1
	if x.Operand != nil {
		operand = c.expr(x.Operand)
	}
	args := make([]int, 0, 2*len(x.Whens))
	for _, w := range x.Whens {
		cond := c.expr(w.Cond)
		if operand >= 0 {
			cond = c.emit(inst{op: opCaseMatch, a: operand, b: cond})
		}
		args = append(args, cond, c.expr(w.Result))
	}
	elseReg := -1
	if x.Else != nil {
		elseReg = c.expr(x.Else)
	}
	return c.emit(inst{op: opCase, args: args, a: elseReg, imm: boolImm(operand >= 0)})
}

func boolImm(b bool) int {
	if b {
		return 1
	}
	return 0
}
