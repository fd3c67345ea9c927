package cep

import (
	"fmt"

	"trafficcep/internal/epl"
)

// This file holds the reference the compiled closures are held to: eval, a
// tree-walking interpreter that walks the expression on every call and
// evaluates both operands of a binary operator before it applies the
// operator. The engine never runs it. FuzzCompiledExprEquivalence,
// TestCompiledMatchesEval and TestRowQueryMatchesEval compare the closures
// against it: the same value, and an error exactly when it errs.

// oracleContext is eval's environment: the bound join row and the FROM
// aliases naming its positions (a qualified reference is resolved by
// scanning them), the aggregate values keyed by their rendering (nil
// outside an aggregation context), and the scalar function registry.
type oracleContext struct {
	row        []*Event
	aliasOrder []string
	aggs       map[string]Value
	funcs      map[string]ScalarFunc
}

// eval evaluates e in ctx by walking the tree.
func eval(e epl.Expr, ctx *oracleContext) (Value, error) {
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

func evalField(ref *epl.FieldRef, ctx *oracleContext) (Value, error) {
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

func evalBinary(x *epl.BinaryExpr, ctx *oracleContext) (Value, error) {
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

func evalBool(e epl.Expr, ctx *oracleContext) (bool, error) {
	v, err := eval(e, ctx)
	if err != nil {
		return false, err
	}
	return truthy(v)
}
