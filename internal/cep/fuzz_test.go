package cep

import (
	"testing"

	"trafficcep/internal/epl"
)

// FuzzCompiledExprEquivalence drives randomly shaped expression trees
// through the closure compiler and through eval, the tree-walking reference
// (oracle_test.go), against randomly typed rows, and asserts the
// equivalence contract the compiler documents: identical values (under the
// engine's valueKey rendering, which owns cross-type numeric equality) and
// identical error presence. Error TEXT may differ, and the compiled form
// may fail fast before a sibling operand is evaluated; both are inside
// the contract, so only presence is compared. The compiler is total, so
// the trees include the nodes that can only fail — references through an
// alias that names no FROM item, aggregates the statement did not collect
// — which must fail in both exactly when evaluation reaches them. Literal-
// only subtrees are compared too: the compiler folds them by running their
// compiled form once, so a fold is held to eval like any other node.
//
// The input bytes are an instruction stream: each byte picks the next
// node kind or leaf value, so the fuzzer mutates tree shapes and row
// contents at the same time.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

var fuzzFieldNames = [4]string{"f0", "f1", "f2", "f3"}

// fuzzNeverField is a field no fuzzed row carries: a reference to it takes
// a slot that every binding fills with the missing-field nil.
const fuzzNeverField = "f9"

// fuzzCollected are the aggregate calls the fuzzed "statement" collected:
// the compiler gets a slot for each and both evaluators a value.
var fuzzCollected = [3]*epl.CallExpr{
	{Func: "sum", Args: []epl.Expr{&epl.FieldRef{Alias: "r", Field: "f0"}}},
	{Func: "count", Star: true},
	{Func: "avg", Args: []epl.Expr{&epl.FieldRef{Alias: "r", Field: "f1"}}},
}

// fuzzValue decodes one typed field value; the bool result is false for
// "field absent".
func fuzzValue(r *fuzzReader) (Value, bool) {
	switch r.byte() % 8 {
	case 0:
		return float64(int(r.byte()%9) - 4), true
	case 1:
		return int(r.byte()%9) - 4, true
	case 2:
		return int64(r.byte()%9) - 4, true
	case 3:
		return float32(r.byte()%5) / 2, true
	case 4:
		return string([]byte{'a' + r.byte()%3}), true
	case 5:
		return r.byte()%2 == 0, true
	case 6:
		return nil, true // present but NULL
	default:
		return nil, false // absent
	}
}

// fuzzExpr builds one expression tree, depth-bounded.
func fuzzExpr(r *fuzzReader, depth int) epl.Expr {
	if depth <= 0 {
		switch r.byte() % 6 {
		case 0:
			return &epl.NumberLit{Value: float64(int(r.byte()%7) - 3)}
		case 1:
			return &epl.StringLit{Value: string([]byte{'a' + r.byte()%3})}
		case 2:
			return &epl.BoolLit{Value: r.byte()%2 == 0}
		case 3:
			b := r.byte()
			alias, field := "r", fuzzFieldNames[b%4]
			if b%16 >= 12 {
				alias = "zz" // names no FROM item
			} else if b >= 192 {
				field = fuzzNeverField
			}
			return &epl.FieldRef{Alias: alias, Field: field}
		case 4:
			return &epl.FieldRef{Field: fuzzFieldNames[r.byte()%4]}
		default:
			return &epl.NumberLit{Value: float64(1 + r.byte()%5)}
		}
	}
	switch r.byte() % 8 {
	case 0:
		op := []string{"+", "-", "*", "/"}[r.byte()%4]
		return &epl.BinaryExpr{Op: op, Left: fuzzExpr(r, depth-1), Right: fuzzExpr(r, depth-1)}
	case 1:
		op := []string{"=", "!=", "<", "<=", ">", ">="}[r.byte()%6]
		return &epl.BinaryExpr{Op: op, Left: fuzzExpr(r, depth-1), Right: fuzzExpr(r, depth-1)}
	case 2:
		op := []string{"AND", "OR"}[r.byte()%2]
		return &epl.BinaryExpr{Op: op, Left: fuzzExpr(r, depth-1), Right: fuzzExpr(r, depth-1)}
	case 3:
		return &epl.UnaryExpr{Op: "NOT", Expr: fuzzExpr(r, depth-1)}
	case 4:
		return &epl.UnaryExpr{Op: "-", Expr: fuzzExpr(r, depth-1)}
	case 5:
		fn := []string{"abs", "sqrt", "floor", "ceil"}[r.byte()%4]
		return &epl.CallExpr{Func: fn, Args: []epl.Expr{fuzzExpr(r, depth-1)}}
	case 6:
		if r.byte()%2 == 0 {
			return fuzzCollected[int(r.byte())%len(fuzzCollected)]
		}
		// An aggregate nobody computed (unless its argument happens to
		// render as a collected one): both evaluators must report it.
		return &epl.CallExpr{Func: "avg", Args: []epl.Expr{fuzzExpr(r, depth-1)}}
	default:
		return fuzzExpr(r, 0)
	}
}

func FuzzCompiledExprEquivalence(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 3, 1, 0, 0, 3, 0, 4, 1, 1, 2, 2})
	f.Add([]byte{2, 0, 2, 5, 3, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{3, 2, 4, 0, 0, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte("differential seed: mixed types"))
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5, 1, 2, 1, 2, 0, 3, 12})               // true OR zz.f0: never reached
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5, 1, 1, 2, 3, 13, 0, 5})               // zz.f1 < 2: reached
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5, 2, 0, 0, 6, 0, 0, 6, 0, 2, 5, 0, 3}) // sum(r.f0) + avg(r.f1), avg NULL
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5, 2, 2, 0, 7, 2, 1, 6, 1, 0, 5})       // false AND avg(2): never reached
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5, 2, 1, 4, 6, 0, 1, 6, 1, 3, 2})       // count(*) > avg(r.f2): reached
	f.Add([]byte{7, 7, 7, 7, 0, 3, 1})                                        // r.f1 with every field absent: NULL
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5, 1, 1, 0, 3, 192, 0, 0, 1})           // r.f9 = 1: a field no row has
	f.Add([]byte{0, 5, 0, 5, 7, 0, 5, 1, 0, 0, 3, 2, 4, 2})                   // r.f2 + f2, f2 absent: NULL vs not found
	f.Add([]byte{7, 7, 7, 7, 1, 0, 3, 5, 0, 0, 3})                            // 1 / 0: a folded error
	f.Add([]byte{7, 7, 7, 7, 1, 4, 1, 0})                                     // -'a': a folded type error
	f.Add([]byte{7, 7, 7, 7, 1, 3, 0, 6})                                     // NOT 3: a folded truthiness error
	f.Add([]byte{7, 7, 7, 7, 2, 2, 1, 0, 3, 5, 0, 0, 3, 7, 2, 0})             // (1 / 0) OR true: the error folds through OR
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}

		fields := make(map[string]Value, len(fuzzFieldNames))
		for _, name := range fuzzFieldNames {
			if v, present := fuzzValue(r); present {
				fields[name] = v
			}
		}
		ev := &Event{Stream: "s", Fields: fields}

		expr := fuzzExpr(r, int(r.byte()%4))

		// The collected aggregates' values, decoded last so the bytes that
		// shape the tree mean what they always did: eval reads them from the
		// keyed map, the compiled form from the slots.
		aggOf := make(map[string]int, len(fuzzCollected))
		aggs := make(map[string]Value, len(fuzzCollected))
		aggF := make([]float64, len(fuzzCollected))
		aggNull := make([]bool, len(fuzzCollected))
		for i, call := range fuzzCollected {
			aggOf[call.String()] = i
			if b := r.byte(); b%4 == 3 {
				aggs[call.String()], aggNull[i] = nil, true
			} else {
				aggF[i] = float64(int(b%9) - 4)
				aggs[call.String()] = aggF[i]
			}
		}

		// Bind every reference through the one FROM alias to position 0,
		// exactly as a single-item statement's bind table would.
		bind := make(map[*epl.FieldRef]int)
		epl.WalkExpr(expr, func(x epl.Expr) {
			if ref, ok := x.(*epl.FieldRef); ok && ref.Alias == "r" {
				bind[ref] = 0
			}
		})
		// Compile first, then bind: the compiler hands out a slot per field it
		// meets, and the event must carry every one of them — the order an
		// engine guarantees by registering statements before it takes events.
		schema := newStreamSchema()
		compiled := (&exprCompiler{bind: bind, schemas: []*streamSchema{schema}, aggOf: aggOf}).value(expr)
		schema.bind(ev)

		row := []*Event{ev}
		vi, erri := eval(expr, &oracleContext{row: row, aliasOrder: []string{"r"}, aggs: aggs})
		vc, errc := compiled(&evalContext{row: row, aggF: aggF, aggNull: aggNull})

		if (erri == nil) != (errc == nil) {
			t.Fatalf("error presence diverged for %v over %v, aggregates %v:\n eval: v=%v err=%v\n compiled: v=%v err=%v",
				expr, fields, aggs, vi, erri, vc, errc)
		}
		if erri == nil && valueKey(vi) != valueKey(vc) {
			t.Fatalf("value diverged for %v over %v, aggregates %v:\n eval: %#v\n compiled: %#v",
				expr, fields, aggs, vi, vc)
		}
	})
}
