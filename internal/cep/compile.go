package cep

import (
	"fmt"

	"trafficcep/internal/epl"
)

// This file is the statement compiler: a one-time pass at statement
// registration that lowers epl.Expr trees into chained Go closures, so the
// per-tuple hot path never walks the AST again. Standing statements are
// compiled once and evaluated millions of times; everything resolvable at
// registration is resolved here:
//
//   - alias-qualified field references become row[idx].slots[slot] reads:
//     idx from the statement's bind table, slot from the schema of the
//     FROM item's stream (event.go) — no alias hashing, no field hashing.
//     Unqualified references stay by-name lookups in Fields: which bound
//     event supplies the field is decided per evaluation by which one HAS
//     it, and a slot cannot tell an absent field from a NULL one;
//   - aggregate references become slot reads (see evalContext.aggF): the
//     trigger plan and the recompute path fill the same slots;
//   - numeric comparison/arithmetic chains run unboxed through compiledNum
//     when the type analysis (staticNum) can rule out the string arms;
//   - AND/OR short-circuit through compiledBool without boxing booleans;
//   - literal-only subtrees fold to constants: the subtree's compiled form,
//     built with folding off, runs once at registration.
//
// The compiler is total over epl.Expr: a node that can never evaluate (a
// qualified reference whose alias is not a FROM item, an aggregate the
// statement did not collect, an operator the parser does not produce)
// compiles to a closure returning a preallocated error, so the failure
// surfaces at that node's place in the evaluation order — a short-circuit
// that skips the node skips the error.
//
// The closures are the engine's only expression evaluator. Their reference
// is a tree-walking interpreter, eval, which lives in the tests
// (oracle_test.go): a compiled expression returns the same value and errs
// exactly when eval errs, but error messages may differ and a type error
// may surface before sibling operands are evaluated (eval evaluates both
// operands first; compiled numeric forms fail fast).
// FuzzCompiledExprEquivalence and TestCompiledMatchesEval compare value and
// error presence, not text.

// compiledExpr evaluates an expression to a boxed Value.
type compiledExpr func(ctx *evalContext) (Value, error)

// compiledNum evaluates a numeric subtree unboxed. It fails exactly where
// the enclosing numeric operation would: non-numeric operand (including
// NULL), unbound alias, failed sub-expression.
type compiledNum func(ctx *evalContext) (float64, error)

// compiledBool evaluates a predicate unboxed, with AND/OR short-circuit.
type compiledBool func(ctx *evalContext) (bool, error)

// stmtCompiled holds the compiled form of every expression a statement
// evaluates at runtime.
type stmtCompiled struct {
	// aggArgC[i] extracts the argument of aggregate slot i, Statement.
	// aggCalls[i] (nil for count(*) and arity errors); aggOf maps an
	// aggregate's rendering to its slot.
	aggArgC []compiledExpr
	aggOf   map[string]int

	selectC  []compiledExpr // parallel to Query.Select; nil for SELECT *
	groupByC []compiledExpr
	havingC  compiledBool
	filtersC [][]compiledBool // parallel to Statement.filters
}

// compileStatement lowers every expression of a fully-planned statement.
// Called at the end of compile(), after the incremental planner ran.
func compileStatement(st *Statement) *stmtCompiled {
	comp := &stmtCompiled{aggOf: make(map[string]int, len(st.aggCalls))}
	for i, call := range st.aggCalls {
		comp.aggOf[call.String()] = i
	}
	c := st.exprCompiler(comp.aggOf)

	comp.aggArgC = make([]compiledExpr, len(st.aggCalls))
	for i, call := range st.aggCalls {
		if !call.Star && len(call.Args) == 1 {
			comp.aggArgC[i] = c.value(call.Args[0])
		}
	}
	q := st.Query
	comp.selectC = make([]compiledExpr, len(q.Select))
	for i, s := range q.Select {
		if !s.Star {
			comp.selectC[i] = c.value(s.Expr)
		}
	}
	comp.groupByC = make([]compiledExpr, len(q.GroupBy))
	for i, g := range q.GroupBy {
		comp.groupByC[i] = c.value(g)
	}
	comp.havingC = c.boolean(q.Having)
	comp.filtersC = make([][]compiledBool, len(st.filters))
	for i, fs := range st.filters {
		comp.filtersC[i] = c.booleans(fs)
	}
	for _, it := range st.items {
		it.probeC = c.values(it.probeExprs)
	}
	if st.inc != nil {
		compileIncremental(st.inc, c, comp)
	}
	return comp
}

// compileIncremental attaches compiled forms to the armed incremental plan.
// Its spec i is aggregate slot i, so it shares the argument extractors.
func compileIncremental(p *incPlan, c *exprCompiler, comp *stmtCompiled) {
	p.emitFiltersC = c.booleans(p.emitFilters)
	for _, ip := range p.items {
		if ip != nil {
			ip.filtersC = c.booleans(ip.filters)
		}
	}
	for i, spec := range p.aggs {
		spec.argC = comp.aggArgC[i]
	}
}

// exprCompiler compiles one statement's expressions against its bind table,
// the schemas of its FROM items' streams (parallel to row positions) and
// its aggregate slots.
type exprCompiler struct {
	bind    map[*epl.FieldRef]int
	schemas []*streamSchema
	aggOf   map[string]int
	// noFold compiles literal-only subtrees node by node: the form folding
	// runs once (literalCompiler).
	noFold bool
}

// literalCompiler compiles the literal-only subtrees constant folding runs:
// they reference no field or aggregate, so it needs no tables.
var literalCompiler = &exprCompiler{noFold: true}

// folds reports whether e is folded to a constant: it is built from
// literals and operators only.
func (c *exprCompiler) folds(e epl.Expr) bool {
	return !c.noFold && constExpr(e)
}

// exprCompiler returns a compiler over the statement's bind table and the
// schemas of its FROM items.
func (st *Statement) exprCompiler(aggOf map[string]int) *exprCompiler {
	schemas := make([]*streamSchema, len(st.items))
	for i, it := range st.items {
		schemas[i] = it.schema
	}
	return &exprCompiler{bind: st.bind, schemas: schemas, aggOf: aggOf}
}

// errValue and errNum are the compiled forms of a node that can never
// evaluate: they return err, allocated once at registration.
func errValue(err error) compiledExpr {
	return func(*evalContext) (Value, error) { return nil, err }
}

func errNum(err error) compiledNum {
	return func(*evalContext) (float64, error) { return 0, err }
}

// value compiles e. Returns nil for nil input.
func (c *exprCompiler) value(e epl.Expr) compiledExpr {
	if e == nil {
		return nil
	}
	return c.compileValue(e)
}

// boolean is value for predicate positions (WHERE/HAVING/filters).
func (c *exprCompiler) boolean(e epl.Expr) compiledBool {
	if e == nil {
		return nil
	}
	return c.compileBool(e)
}

func (c *exprCompiler) values(es []epl.Expr) []compiledExpr {
	if len(es) == 0 {
		return nil
	}
	out := make([]compiledExpr, len(es))
	for i, e := range es {
		out[i] = c.value(e)
	}
	return out
}

func (c *exprCompiler) booleans(es []epl.Expr) []compiledBool {
	if len(es) == 0 {
		return nil
	}
	out := make([]compiledBool, len(es))
	for i, e := range es {
		out[i] = c.boolean(e)
	}
	return out
}

// constExpr reports whether e is built from literals and operators only, so
// it can be folded at compile time.
func constExpr(e epl.Expr) bool {
	switch x := e.(type) {
	case *epl.NumberLit, *epl.StringLit, *epl.BoolLit:
		return true
	case *epl.UnaryExpr:
		return constExpr(x.Expr)
	case *epl.BinaryExpr:
		return constExpr(x.Left) && constExpr(x.Right)
	}
	return false
}

// compileValue lowers e to a boxed-result closure. A literal-only subtree
// runs once, here; deterministic errors (1/0) are folded too, so the
// closure re-reports the same error on every evaluation.
func (c *exprCompiler) compileValue(e epl.Expr) compiledExpr {
	if c.folds(e) {
		v, err := literalCompiler.compileValue(e)(&evalContext{})
		return func(*evalContext) (Value, error) { return v, err }
	}
	switch x := e.(type) {
	case *epl.NumberLit:
		v := Value(x.Value)
		return func(*evalContext) (Value, error) { return v, nil }
	case *epl.StringLit:
		v := Value(x.Value)
		return func(*evalContext) (Value, error) { return v, nil }
	case *epl.BoolLit:
		v := Value(x.Value)
		return func(*evalContext) (Value, error) { return v, nil }
	case *epl.FieldRef:
		return c.compileField(x)
	case *epl.UnaryExpr:
		switch x.Op {
		case "NOT":
			sub := c.compileBool(x.Expr)
			return func(ctx *evalContext) (Value, error) {
				b, err := sub(ctx)
				if err != nil {
					return nil, err
				}
				return !b, nil
			}
		case "-":
			sub := c.compileNum(x.Expr)
			return func(ctx *evalContext) (Value, error) {
				n, err := sub(ctx)
				if err != nil {
					return nil, err
				}
				return -n, nil
			}
		}
		return errValue(fmt.Errorf("cep: unknown unary operator %q", x.Op))
	case *epl.BinaryExpr:
		switch x.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=":
			b := c.compileBool(x)
			return func(ctx *evalContext) (Value, error) {
				v, err := b(ctx)
				if err != nil {
					return nil, err
				}
				return v, nil
			}
		case "+", "-", "*", "/":
			return c.compileArith(x)
		}
		return errValue(fmt.Errorf("cep: unknown operator %q", x.Op))
	case *epl.CallExpr:
		if epl.AggregateFuncs[x.Func] {
			return c.compileAgg(x)
		}
		return c.compileScalarCall(x)
	}
	return errValue(fmt.Errorf("cep: cannot evaluate %T", e))
}

// compileField bakes the bind-table position into the closure. A qualified
// reference the bind table does not know names no FROM item: it can only
// ever report the alias unbound.
func (c *exprCompiler) compileField(x *epl.FieldRef) compiledExpr {
	field := x.Field
	if x.Alias == "" {
		errMissing := fmt.Errorf("cep: field %q not found in any bound stream", field)
		return func(ctx *evalContext) (Value, error) {
			for _, ev := range ctx.row {
				if ev != nil {
					if v, ok := ev.Fields[field]; ok {
						return v, nil
					}
				}
			}
			return nil, errMissing
		}
	}
	errUnbound := fmt.Errorf("cep: alias %q is not bound", x.Alias)
	idx, ok := c.bind[x]
	if !ok {
		return errValue(errUnbound)
	}
	slot := c.schemas[idx].slotOf(field)
	return func(ctx *evalContext) (Value, error) {
		if ev := ctx.row[idx]; ev != nil {
			return ev.slots[slot], nil
		}
		return nil, errUnbound
	}
}

// fieldNum is compileField with the numeric conversion fused in — the
// hottest leaf shape (aggregate arguments, comparison operands).
func (c *exprCompiler) fieldNum(x *epl.FieldRef) compiledNum {
	if x.Alias == "" {
		g := c.compileField(x)
		return numWrap(g)
	}
	errUnbound := fmt.Errorf("cep: alias %q is not bound", x.Alias)
	idx, ok := c.bind[x]
	if !ok {
		return errNum(errUnbound)
	}
	slot := c.schemas[idx].slotOf(x.Field)
	return func(ctx *evalContext) (float64, error) {
		ev := ctx.row[idx]
		if ev == nil {
			return 0, errUnbound
		}
		v := ev.slots[slot]
		if f, ok := v.(float64); ok {
			return f, nil
		}
		n, ok := numeric(v)
		if !ok {
			return 0, fmt.Errorf("cep: value %v (%T) is not numeric", v, v)
		}
		return n, nil
	}
}

// staticNum reports whether every successful evaluation of e yields a
// numeric value or NULL — never a string or bool — letting comparisons and
// `+` rule out their string arms at compile time. NULL is fine: it errors
// inside compiledNum exactly as valueCompare/arithmetic reject it at
// runtime. Scalar calls do not qualify even for built-ins: a user function
// registered later under the same name shadows them and may return anything.
func (c *exprCompiler) staticNum(e epl.Expr) bool {
	switch x := e.(type) {
	case *epl.NumberLit:
		return true
	case *epl.UnaryExpr:
		return x.Op == "-"
	case *epl.BinaryExpr:
		switch x.Op {
		case "-", "*", "/":
			return true
		case "+":
			return c.staticNum(x.Left) || c.staticNum(x.Right)
		}
		return false
	case *epl.CallExpr:
		return epl.AggregateFuncs[x.Func]
	}
	return false
}

// compileNum lowers e to an unboxed float64 closure.
func (c *exprCompiler) compileNum(e epl.Expr) compiledNum {
	if c.folds(e) {
		f, err := literalCompiler.compileNum(e)(&evalContext{})
		return func(*evalContext) (float64, error) { return f, err }
	}
	switch x := e.(type) {
	case *epl.FieldRef:
		return c.fieldNum(x)
	case *epl.UnaryExpr:
		if x.Op == "-" {
			sub := c.compileNum(x.Expr)
			return func(ctx *evalContext) (float64, error) {
				n, err := sub(ctx)
				if err != nil {
					return 0, err
				}
				return -n, nil
			}
		}
	case *epl.BinaryExpr:
		switch x.Op {
		case "-", "*", "/":
			return c.compileArithNum(x)
		case "+":
			if c.staticNum(x.Left) || c.staticNum(x.Right) {
				return c.compileArithNum(x)
			}
			// Could be string concatenation: evaluate boxed, then convert.
		}
	case *epl.CallExpr:
		if epl.AggregateFuncs[x.Func] {
			return c.compileAggNum(x)
		}
	}
	return numWrap(c.compileValue(e))
}

func numWrap(g compiledExpr) compiledNum {
	return func(ctx *evalContext) (float64, error) {
		v, err := g(ctx)
		if err != nil {
			return 0, err
		}
		n, ok := numeric(v)
		if !ok {
			return 0, fmt.Errorf("cep: value %v (%T) is not numeric", v, v)
		}
		return n, nil
	}
}

// compileArith lowers +,-,*,/ to a boxed-result closure. The numeric arms
// run unboxed; only `+` over two dynamically-typed sides keeps the boxed
// numeric-else-concat dispatch.
func (c *exprCompiler) compileArith(x *epl.BinaryExpr) compiledExpr {
	if x.Op == "+" && !c.staticNum(x.Left) && !c.staticNum(x.Right) {
		l, r := c.compileValue(x.Left), c.compileValue(x.Right)
		return func(ctx *evalContext) (Value, error) {
			lv, err := l(ctx)
			if err != nil {
				return nil, err
			}
			rv, err := r(ctx)
			if err != nil {
				return nil, err
			}
			ln, lok := numeric(lv)
			rn, rok := numeric(rv)
			if lok && rok {
				return ln + rn, nil
			}
			if ls, ok := lv.(string); ok {
				if rs, ok := rv.(string); ok {
					return ls + rs, nil
				}
			}
			return nil, fmt.Errorf("cep: arithmetic on non-numeric values %v + %v", lv, rv)
		}
	}
	n := c.compileArithNum(x)
	return func(ctx *evalContext) (Value, error) {
		f, err := n(ctx)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

var errDivZero = fmt.Errorf("cep: division by zero")

func (c *exprCompiler) compileArithNum(x *epl.BinaryExpr) compiledNum {
	l := c.compileNum(x.Left)
	r := c.compileNum(x.Right)
	switch x.Op {
	case "+":
		return func(ctx *evalContext) (float64, error) {
			a, err := l(ctx)
			if err != nil {
				return 0, err
			}
			b, err := r(ctx)
			if err != nil {
				return 0, err
			}
			return a + b, nil
		}
	case "-":
		return func(ctx *evalContext) (float64, error) {
			a, err := l(ctx)
			if err != nil {
				return 0, err
			}
			b, err := r(ctx)
			if err != nil {
				return 0, err
			}
			return a - b, nil
		}
	case "*":
		return func(ctx *evalContext) (float64, error) {
			a, err := l(ctx)
			if err != nil {
				return 0, err
			}
			b, err := r(ctx)
			if err != nil {
				return 0, err
			}
			return a * b, nil
		}
	case "/":
		return func(ctx *evalContext) (float64, error) {
			a, err := l(ctx)
			if err != nil {
				return 0, err
			}
			b, err := r(ctx)
			if err != nil {
				return 0, err
			}
			if b == 0 {
				return 0, errDivZero
			}
			return a / b, nil
		}
	}
	return errNum(fmt.Errorf("cep: unknown operator %q", x.Op))
}

// compileBool lowers a predicate to an unboxed bool closure.
func (c *exprCompiler) compileBool(e epl.Expr) compiledBool {
	if c.folds(e) {
		b, err := literalCompiler.compileBool(e)(&evalContext{})
		return func(*evalContext) (bool, error) { return b, err }
	}
	switch x := e.(type) {
	case *epl.UnaryExpr:
		if x.Op == "NOT" {
			sub := c.compileBool(x.Expr)
			return func(ctx *evalContext) (bool, error) {
				b, err := sub(ctx)
				if err != nil {
					return false, err
				}
				return !b, nil
			}
		}
	case *epl.BinaryExpr:
		switch x.Op {
		case "AND":
			l, r := c.compileBool(x.Left), c.compileBool(x.Right)
			return func(ctx *evalContext) (bool, error) {
				lb, err := l(ctx)
				if err != nil || !lb {
					return false, err
				}
				return r(ctx)
			}
		case "OR":
			l, r := c.compileBool(x.Left), c.compileBool(x.Right)
			return func(ctx *evalContext) (bool, error) {
				lb, err := l(ctx)
				if err != nil || lb {
					return lb, err
				}
				return r(ctx)
			}
		case "=", "!=":
			l, r := c.compileValue(x.Left), c.compileValue(x.Right)
			want := x.Op == "="
			return func(ctx *evalContext) (bool, error) {
				lv, err := l(ctx)
				if err != nil {
					return false, err
				}
				rv, err := r(ctx)
				if err != nil {
					return false, err
				}
				return valueEq(lv, rv) == want, nil
			}
		case "<", "<=", ">", ">=":
			return c.compileCompare(x)
		}
	}
	g := c.compileValue(e)
	return func(ctx *evalContext) (bool, error) {
		v, err := g(ctx)
		if err != nil {
			return false, err
		}
		return truthy(v)
	}
}

// compileCompare lowers an ordered comparison. When one side is statically
// numeric the string-vs-string arm of valueCompare is unreachable, so both
// sides run unboxed; the numeric conversion on the dynamic side fails
// exactly where valueCompare would have failed the comparison.
//
// NaN caution (found by FuzzCompiledExprEquivalence): valueCompare is a
// three-way compare that answers 0 when neither a<b nor a>b holds, so a
// NaN operand makes `<=` and `>=` TRUE through the boxed form. The unboxed
// forms below use !(a>b) / !(a<b) — not IEEE a<=b — to reproduce that
// exactly.
func (c *exprCompiler) compileCompare(x *epl.BinaryExpr) compiledBool {
	op := x.Op
	if c.staticNum(x.Left) || c.staticNum(x.Right) {
		l, r := c.compileNum(x.Left), c.compileNum(x.Right)
		switch op {
		case "<":
			return func(ctx *evalContext) (bool, error) {
				a, err := l(ctx)
				if err != nil {
					return false, err
				}
				b, err := r(ctx)
				if err != nil {
					return false, err
				}
				return a < b, nil
			}
		case "<=":
			return func(ctx *evalContext) (bool, error) {
				a, err := l(ctx)
				if err != nil {
					return false, err
				}
				b, err := r(ctx)
				if err != nil {
					return false, err
				}
				return !(a > b), nil
			}
		case ">":
			return func(ctx *evalContext) (bool, error) {
				a, err := l(ctx)
				if err != nil {
					return false, err
				}
				b, err := r(ctx)
				if err != nil {
					return false, err
				}
				return a > b, nil
			}
		default:
			return func(ctx *evalContext) (bool, error) {
				a, err := l(ctx)
				if err != nil {
					return false, err
				}
				b, err := r(ctx)
				if err != nil {
					return false, err
				}
				return !(a < b), nil
			}
		}
	}
	l, r := c.compileValue(x.Left), c.compileValue(x.Right)
	return func(ctx *evalContext) (bool, error) {
		lv, err := l(ctx)
		if err != nil {
			return false, err
		}
		rv, err := r(ctx)
		if err != nil {
			return false, err
		}
		cv, err := valueCompare(lv, rv)
		if err != nil {
			return false, err
		}
		switch op {
		case "<":
			return cv < 0, nil
		case "<=":
			return cv <= 0, nil
		case ">":
			return cv > 0, nil
		default:
			return cv >= 0, nil
		}
	}
}

// errAggNotCollected is the error of an aggregate call outside the places
// a statement collects aggregates from (SELECT, HAVING) — inside
// GROUP BY, say: no evaluator ever computes it.
func errAggNotCollected(key string) error {
	return fmt.Errorf("cep: aggregate %s was not pre-computed", key)
}

// compileAgg lowers an aggregate reference to a read of its slot.
func (c *exprCompiler) compileAgg(x *epl.CallExpr) compiledExpr {
	key := x.String()
	slot, ok := c.aggOf[key]
	if !ok {
		return errValue(errAggNotCollected(key))
	}
	errOutside := fmt.Errorf("cep: aggregate %s used outside aggregation context", x.Func)
	return func(ctx *evalContext) (Value, error) {
		switch {
		case ctx.aggF == nil:
			return nil, errOutside
		case ctx.aggNull[slot]:
			return nil, nil
		}
		return ctx.aggF[slot], nil
	}
}

// compileAggNum is compileAgg in a numeric position: a NULL aggregate is an
// error here, exactly as valueCompare/arithmetic reject nil at runtime.
func (c *exprCompiler) compileAggNum(x *epl.CallExpr) compiledNum {
	key := x.String()
	slot, ok := c.aggOf[key]
	if !ok {
		return errNum(errAggNotCollected(key))
	}
	errOutside := fmt.Errorf("cep: aggregate %s used outside aggregation context", x.Func)
	errNull := fmt.Errorf("cep: aggregate %s is NULL in a numeric context", key)
	return func(ctx *evalContext) (float64, error) {
		switch {
		case ctx.aggF == nil:
			return 0, errOutside
		case ctx.aggNull[slot]:
			return 0, errNull
		}
		return ctx.aggF[slot], nil
	}
}

// compileScalarCall resolves the function at evaluation time
// (RegisterFunction after statement creation takes effect, and user
// registrations shadow built-ins) but pre-compiles the arguments into a
// per-call-site scratch buffer.
func (c *exprCompiler) compileScalarCall(x *epl.CallExpr) compiledExpr {
	name := x.Func
	args := c.values(x.Args)
	scratch := make([]Value, len(x.Args))
	errUnknown := fmt.Errorf("cep: unknown function %q", name)
	return func(ctx *evalContext) (Value, error) {
		fn, ok := ctx.funcs[name]
		if !ok {
			fn, ok = builtinFuncs[name]
		}
		if !ok {
			return nil, errUnknown
		}
		for i, ac := range args {
			v, err := ac(ctx)
			if err != nil {
				return nil, err
			}
			scratch[i] = v
		}
		return fn(scratch)
	}
}
