// Package cep implements an Esper-like Complex Event Processing engine: the
// execution back-end for the EPL subset in internal/epl. An Engine holds a
// set of standing statements (rules); events sent to the engine update the
// statements' stream views and trigger rule evaluation, pushing matches to
// listeners — the processing model described in §2.1.2 of the paper.
package cep

import (
	"fmt"
	"math"
	"strconv"
)

// Value is the dynamic type of event fields and expression results. The
// engine understands float64, int, int64, string, bool and nil; integers are
// coerced to float64 for arithmetic.
type Value = any

// numeric converts v to a float64 if possible. Booleans are deliberately
// not numeric: `true = 1`, `b < 2` and `sum(flag)` are type errors, exactly
// like strings in arithmetic, so an unboxed compiled form cannot disagree
// with a boxed one over them (TestBoolIsNotNumeric pins the rejection).
// Boolean equality still works through valueEq's default case, and truthy()
// is unchanged.
func numeric(v Value) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float32:
		return float64(x), true
	default:
		return 0, false
	}
}

// truthy interprets a value as a boolean condition.
func truthy(v Value) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case nil:
		return false, nil
	default:
		return false, fmt.Errorf("cep: value %v (%T) is not a boolean", v, v)
	}
}

// valueEq compares two values for equality with numeric coercion.
func valueEq(a, b Value) bool {
	if an, ok := numeric(a); ok {
		if bn, ok := numeric(b); ok {
			return an == bn
		}
		return false
	}
	switch av := a.(type) {
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case nil:
		return b == nil
	default:
		return a == b
	}
}

// valueCompare returns -1, 0, +1 for ordered values; an error if the values
// are not comparable.
func valueCompare(a, b Value) (int, error) {
	if an, ok := numeric(a); ok {
		if bn, ok := numeric(b); ok {
			switch {
			case an < bn:
				return -1, nil
			case an > bn:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		switch {
		case as < bs:
			return -1, nil
		case as > bs:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("cep: cannot compare %T with %T", a, b)
}

// valueKey renders a value into a string usable as a hash key component.
// Numeric values with the same magnitude map to the same key regardless of
// Go type, matching valueEq.
func valueKey(v Value) string {
	if n, ok := numeric(v); ok {
		if n == math.Trunc(n) && math.Abs(n) < 1e15 {
			return "n" + strconv.FormatInt(int64(n), 10)
		}
		return "f" + strconv.FormatFloat(n, 'g', -1, 64)
	}
	switch x := v.(type) {
	case string:
		return "s" + x
	case nil:
		return "_"
	default:
		return "o" + fmt.Sprint(x)
	}
}

// keySep separates the components of a composite hash key.
const keySep = '\x1f'

// appendValueKey appends valueKey(v) to buf without intermediate string
// allocations for the common numeric and string cases. The rendering must
// stay byte-identical to valueKey: hot paths build keys with this function
// and look them up in maps populated via either path.
func appendValueKey(buf []byte, v Value) []byte {
	if n, ok := numeric(v); ok {
		if n == math.Trunc(n) && math.Abs(n) < 1e15 {
			buf = append(buf, 'n')
			return strconv.AppendInt(buf, int64(n), 10)
		}
		buf = append(buf, 'f')
		return strconv.AppendFloat(buf, n, 'g', -1, 64)
	}
	switch x := v.(type) {
	case string:
		buf = append(buf, 's')
		return append(buf, x...)
	case nil:
		return append(buf, '_')
	default:
		return fmt.Appendf(buf, "o%v", x)
	}
}

// appendCompositeKey appends the composite hash key of vals — their value
// keys joined by keySep — to buf; same contract as appendValueKey.
func appendCompositeKey(buf []byte, vals []Value) []byte {
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, keySep)
		}
		buf = appendValueKey(buf, v)
	}
	return buf
}
