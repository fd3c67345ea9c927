package cep

import (
	"fmt"
	"math"

	"trafficcep/internal/epl"
)

// ScalarFunc is a user-registered scalar function callable from EPL
// expressions. The engine uses this for the join-with-database threshold
// retrieval strategy (§4.3.1), where a rule calls into the storage medium.
// The args slice is only valid for the duration of the call: compiled
// statements reuse a per-call-site scratch buffer, so a function that needs
// the arguments later must copy them.
type ScalarFunc func(args []Value) (Value, error)

// builtinFuncs are always available scalar functions.
var builtinFuncs = map[string]ScalarFunc{
	"abs": func(args []Value) (Value, error) {
		n, err := oneNumeric("abs", args)
		if err != nil {
			return nil, err
		}
		return math.Abs(n), nil
	},
	"sqrt": func(args []Value) (Value, error) {
		n, err := oneNumeric("sqrt", args)
		if err != nil {
			return nil, err
		}
		return math.Sqrt(n), nil
	},
	"floor": func(args []Value) (Value, error) {
		n, err := oneNumeric("floor", args)
		if err != nil {
			return nil, err
		}
		return math.Floor(n), nil
	},
	"ceil": func(args []Value) (Value, error) {
		n, err := oneNumeric("ceil", args)
		if err != nil {
			return nil, err
		}
		return math.Ceil(n), nil
	},
}

func oneNumeric(name string, args []Value) (float64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("cep: %s takes 1 argument, got %d", name, len(args))
	}
	n, ok := numeric(args[0])
	if !ok {
		return 0, fmt.Errorf("cep: %s argument %v is not numeric", name, args[0])
	}
	return n, nil
}

// evalContext is the environment for evaluating one expression: the bound
// join row, pre-computed aggregate values (keyed by the aggregate
// expression's rendering), and the scalar function registry.
//
// Join rows are position-indexed: row[i] is the event bound to the i-th
// FROM item (nil while unbound). Compiled expressions carry the positions
// of their field references; aliasOrder names the positions for eval,
// which resolves a qualified reference by scanning it.
type evalContext struct {
	row        []*Event
	aliasOrder []string // FROM order, parallel to row; read by eval only
	aggs       map[string]Value
	funcs      map[string]ScalarFunc

	// aggF/aggNull are the unboxed aggregate slots filled by the
	// incremental evaluators: slot i holds the value of the statement's
	// i-th distinct aggregate (the ordering of stmtCompiled.aggKeys),
	// aggNull[i] marking SQL NULL. Compiled aggregate references read the
	// slots when aggF is non-nil and the aggs map — what the recompute
	// path fills — otherwise; eval only ever reads the map.
	aggF    []float64
	aggNull []bool
}

// eval is the one-shot evaluator: it walks the expression tree on every
// call. It serves the callers that evaluate an expression once or a few
// times, where compiling would not amortise — EvalScalar (sqlstore's
// Listing-2 SELECT runs every expression once per stored row) and the
// statement compiler's constant folding. Standing statements never call it
// per tuple: they run the closures compile.go builds. It is also the
// reference those closures are held to, by FuzzCompiledExprEquivalence and
// TestCompiledMatchesEval.
func eval(e epl.Expr, ctx *evalContext) (Value, error) {
	switch x := e.(type) {
	case *epl.NumberLit:
		return x.Value, nil
	case *epl.StringLit:
		return x.Value, nil
	case *epl.BoolLit:
		return x.Value, nil
	case *epl.FieldRef:
		return evalField(x, ctx)
	case *epl.UnaryExpr:
		v, err := eval(x.Expr, ctx)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			b, err := truthy(v)
			if err != nil {
				return nil, err
			}
			return !b, nil
		case "-":
			n, ok := numeric(v)
			if !ok {
				return nil, fmt.Errorf("cep: cannot negate %v", v)
			}
			return -n, nil
		}
		return nil, fmt.Errorf("cep: unknown unary operator %q", x.Op)
	case *epl.BinaryExpr:
		return evalBinary(x, ctx)
	case *epl.CallExpr:
		if epl.AggregateFuncs[x.Func] {
			if ctx.aggs == nil {
				return nil, fmt.Errorf("cep: aggregate %s used outside aggregation context", x.Func)
			}
			v, ok := ctx.aggs[x.String()]
			if !ok {
				return nil, fmt.Errorf("cep: aggregate %s was not pre-computed", x.String())
			}
			return v, nil
		}
		fn, ok := ctx.funcs[x.Func]
		if !ok {
			fn, ok = builtinFuncs[x.Func]
		}
		if !ok {
			return nil, fmt.Errorf("cep: unknown function %q", x.Func)
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := eval(a, ctx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return fn(args)
	}
	return nil, fmt.Errorf("cep: cannot evaluate %T", e)
}

func evalField(ref *epl.FieldRef, ctx *evalContext) (Value, error) {
	if ref.Alias != "" {
		for i, alias := range ctx.aliasOrder {
			if alias == ref.Alias {
				if ev := ctx.row[i]; ev != nil {
					return ev.Get(ref.Field), nil
				}
				break
			}
		}
		return nil, fmt.Errorf("cep: alias %q is not bound", ref.Alias)
	}
	// Unqualified: first FROM item whose bound event has the field.
	for _, ev := range ctx.row {
		if ev != nil {
			if v, ok := ev.Fields[ref.Field]; ok {
				return v, nil
			}
		}
	}
	return nil, fmt.Errorf("cep: field %q not found in any bound stream", ref.Field)
}

func evalBinary(x *epl.BinaryExpr, ctx *evalContext) (Value, error) {
	// Short-circuit logical operators.
	switch x.Op {
	case "AND":
		lb, err := evalBool(x.Left, ctx)
		if err != nil {
			return nil, err
		}
		if !lb {
			return false, nil
		}
		return evalBool(x.Right, ctx)
	case "OR":
		lb, err := evalBool(x.Left, ctx)
		if err != nil {
			return nil, err
		}
		if lb {
			return true, nil
		}
		return evalBool(x.Right, ctx)
	}

	lv, err := eval(x.Left, ctx)
	if err != nil {
		return nil, err
	}
	rv, err := eval(x.Right, ctx)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=":
		return valueEq(lv, rv), nil
	case "!=":
		return !valueEq(lv, rv), nil
	case "<", "<=", ">", ">=":
		c, err := valueCompare(lv, rv)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case "+", "-", "*", "/":
		ln, lok := numeric(lv)
		rn, rok := numeric(rv)
		if !lok || !rok {
			if x.Op == "+" {
				// String concatenation.
				ls, lsok := lv.(string)
				rs, rsok := rv.(string)
				if lsok && rsok {
					return ls + rs, nil
				}
			}
			return nil, fmt.Errorf("cep: arithmetic on non-numeric values %v %s %v", lv, x.Op, rv)
		}
		switch x.Op {
		case "+":
			return ln + rn, nil
		case "-":
			return ln - rn, nil
		case "*":
			return ln * rn, nil
		default:
			if rn == 0 {
				return nil, fmt.Errorf("cep: division by zero")
			}
			return ln / rn, nil
		}
	}
	return nil, fmt.Errorf("cep: unknown operator %q", x.Op)
}

func evalBool(e epl.Expr, ctx *evalContext) (bool, error) {
	v, err := eval(e, ctx)
	if err != nil {
		return false, err
	}
	return truthy(v)
}

// computeAggregates evaluates the statement's distinct aggregate calls over
// the given group of rows and returns expr-rendering → value. Aggregate
// keys were rendered once at statement compilation (stmtCompiled.aggKeys),
// so the recompute path never calls CallExpr.String per evaluation.
func computeAggregates(comp *stmtCompiled, rows [][]*Event, base *evalContext) (map[string]Value, error) {
	out := make(map[string]Value, len(comp.aggKeys))
	for i, key := range comp.aggKeys {
		v, err := computeAggregate(comp.aggCalls[i], comp.aggArgC[i], rows, base)
		if err != nil {
			return nil, err
		}
		out[key] = v
	}
	return out, nil
}

// computeAggregate folds one aggregate over a group of rows. arg is the
// compiled argument extractor; it is nil exactly when the call is count(*)
// or has the wrong arity.
func computeAggregate(call *epl.CallExpr, arg compiledExpr, rows [][]*Event, base *evalContext) (Value, error) {
	if call.Func == "count" && call.Star {
		return float64(len(rows)), nil
	}
	if arg == nil {
		return nil, fmt.Errorf("cep: aggregate %s takes 1 argument", call.Func)
	}
	var (
		n          int
		sum, sumSq float64
		min, max   float64
	)
	ctx := &evalContext{funcs: base.funcs}
	for _, row := range rows {
		ctx.row = row
		v, err := arg(ctx)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue // SQL semantics: NULLs are ignored by aggregates
		}
		if call.Func == "count" {
			n++
			continue
		}
		f, ok := numeric(v)
		if !ok {
			return nil, fmt.Errorf("cep: aggregate %s over non-numeric value %v", call.Func, v)
		}
		if n == 0 {
			min, max = f, f
		} else {
			if f < min {
				min = f
			}
			if f > max {
				max = f
			}
		}
		n++
		sum += f
		sumSq += f * f
	}
	switch call.Func {
	case "count":
		return float64(n), nil
	case "sum":
		if n == 0 {
			return nil, nil
		}
		return sum, nil
	case "avg":
		if n == 0 {
			return nil, nil
		}
		return sum / float64(n), nil
	case "min":
		if n == 0 {
			return nil, nil
		}
		return min, nil
	case "max":
		if n == 0 {
			return nil, nil
		}
		return max, nil
	case "stddev":
		if n < 2 {
			return nil, nil
		}
		mean := sum / float64(n)
		variance := (sumSq - float64(n)*mean*mean) / float64(n-1)
		if variance < 0 {
			variance = 0
		}
		return math.Sqrt(variance), nil
	}
	return nil, fmt.Errorf("cep: unknown aggregate %q", call.Func)
}

// collectAggregates gathers all aggregate calls in an expression tree.
func collectAggregates(e epl.Expr, into *[]*epl.CallExpr) {
	epl.WalkExpr(e, func(x epl.Expr) {
		if c, ok := x.(*epl.CallExpr); ok && epl.AggregateFuncs[c.Func] {
			*into = append(*into, c)
		}
	})
}
