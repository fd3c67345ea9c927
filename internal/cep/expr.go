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

	// aggF/aggNull are the aggregate slots, filled by the trigger plan at
	// emit: slot i holds the value of its i-th distinct
	// aggregate (Statement.aggCalls), aggNull[i] marking SQL NULL. They are
	// nil outside an aggregation context — in WHERE, GROUP BY, an aggregate
	// argument — where an aggregate reference fails.
	aggF    []float64
	aggNull []bool
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
