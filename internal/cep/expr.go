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

// evalContext is the environment a compiled expression runs in: the bound
// join row, the aggregate slots and the scalar function registry.
//
// Join rows are position-indexed: row[i] is the event bound to the i-th
// FROM item (nil while unbound); compiled field references carry their
// positions.
type evalContext struct {
	row   []*Event
	funcs map[string]ScalarFunc

	// aggF/aggNull are the aggregate slots, filled by whichever path
	// evaluates the statement: slot i holds the value of its i-th distinct
	// aggregate (Statement.aggCalls), aggNull[i] marking SQL NULL. They are
	// nil outside an aggregation context — in WHERE, GROUP BY, an aggregate
	// argument — where an aggregate reference fails.
	aggF    []float64
	aggNull []bool
}

// computeAggregates folds every aggregate of the statement over one group
// of join rows into ctx's slots — the recompute path's delivery.
func (st *Statement) computeAggregates(rows [][]*Event, ctx *evalContext) error {
	argCtx := &evalContext{funcs: ctx.funcs}
	for i, call := range st.aggCalls {
		v, err := computeAggregate(call, st.comp.aggArgC[i], rows, argCtx)
		if err != nil {
			return err
		}
		ctx.aggNull[i] = v == nil
		ctx.aggF[i], _ = v.(float64)
	}
	return nil
}

// computeAggregate folds one aggregate over a group of rows; a nil result is
// SQL NULL. arg is the compiled argument extractor, evaluated in ctx; it is
// nil exactly when the call is count(*) or has the wrong arity.
func computeAggregate(call *epl.CallExpr, arg compiledExpr, rows [][]*Event, ctx *evalContext) (Value, error) {
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

// collectAggregates appends the aggregate calls in an expression tree whose
// rendering is not in seen yet, and adds their renderings to seen.
func collectAggregates(e epl.Expr, seen map[string]bool, into *[]*epl.CallExpr) {
	epl.WalkExpr(e, func(x epl.Expr) {
		if c, ok := x.(*epl.CallExpr); ok && epl.AggregateFuncs[c.Func] {
			if key := c.String(); !seen[key] {
				seen[key] = true
				*into = append(*into, c)
			}
		}
	})
}
