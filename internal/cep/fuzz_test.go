package cep

import (
	"math"
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

// fuzzPlanStatements are rule-template statements the trigger-plan fuzzer
// runs side by side: Listing 1 with UNIDIRECTIONAL on and off, item filters
// or none, key-aligned and keyed items, a window on another stream than its
// trigger, an argument and a filter on the trigger itself, an equi class
// that holds two trigger fields, and every window whose value ring has one
// position: a non-trigger std:lastevent item, std:groupwin over
// std:lastevent keyed by the join and by another field, and win:length(1).
var fuzzPlanStatements = map[string]string{
	"listing1": `SELECT bd2.loc AS loc, avg(bd2.a) AS cur, avg(th.v) AS thr, count(*) AS n
		FROM bus.std:lastevent() AS bd UNIDIRECTIONAL, bus.std:groupwin(loc).win:length(3) AS bd2, thr.win:keepall() AS th
		WHERE bd.hour = th.hour AND bd.loc = th.loc AND bd.loc = bd2.loc
		GROUP BY bd2.loc HAVING avg(bd2.a) > avg(th.v)`,
	"filtered": `SELECT bd2.loc AS loc, sum(bd2.a) AS s, max(th.v) AS hi, count(bd2.b) AS nb
		FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(2) AS bd2, thr.win:length(4) AS th
		WHERE bd.loc = bd2.loc AND bd.loc = th.loc AND bd2.b < 2 AND th.v >= 0
		GROUP BY bd2.loc`,
	"keyed": `SELECT bd.loc AS loc, sum(w.a) AS s, min(w.a) AS lo, max(w.b) AS hi, stddev(w.a) AS sd, count(w.b) AS nb
		FROM bus.std:lastevent() AS bd, bus.win:length(4) AS w
		WHERE bd.loc = w.loc AND w.a > 0 GROUP BY bd.loc`,
	"cross": `SELECT bd.loc AS loc, avg(x.a) AS m, count(*) AS n
		FROM bus.std:lastevent() AS bd UNIDIRECTIONAL, aux.std:groupwin(loc).win:length(2) AS x
		WHERE bd.loc = x.loc GROUP BY bd.loc`,
	"trigger": `SELECT t.loc AS loc, sum(t.a) AS s, avg(w.b) AS m, count(w.a) AS n
		FROM aux.std:lastevent() AS t, bus.std:groupwin(hour).win:length(3) AS w
		WHERE t.loc = w.loc AND t.b != 1 GROUP BY t.loc`,
	"pair": `SELECT t.a AS a, count(*) AS n, sum(y.b) AS s
		FROM bus.std:lastevent() AS t UNIDIRECTIONAL, thr.win:length(3) AS z, aux.win:length(3) AS y
		WHERE t.a = y.a AND t.b = y.a AND t.loc = z.loc AND z.v < 2`,
	"latest": `SELECT t.loc AS loc, sum(l.a) AS s, min(h.a) AS lo, count(*) AS n
		FROM bus.std:lastevent() AS t UNIDIRECTIONAL, aux.std:lastevent() AS l, aux.std:groupwin(hour).std:lastevent() AS h
		WHERE t.loc = l.loc AND t.loc = h.loc AND l.b >= 0 GROUP BY t.loc`,
	"grouplast": `SELECT bd.loc AS loc, avg(g.a) AS m, count(g.b) AS nb
		FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).std:lastevent() AS g
		WHERE bd.loc = g.loc AND g.b != 0 GROUP BY bd.loc`,
	"single": `SELECT t.hour AS h, sum(w.a) AS s, stddev(w.v) AS sd, count(*) AS n
		FROM thr.std:lastevent() AS t, bus.win:length(1) AS w
		WHERE t.hour = w.hour AND w.a < 2 GROUP BY t.hour`,
}

// fuzzFeedValue decodes one field value of the plan fuzzer's feed: a small
// integer, usually, else "x", NULL, NaN or ±Inf; the bool is false for
// "field absent".
func fuzzFeedValue(r *fuzzReader) (Value, bool) {
	switch b := r.byte(); b % 12 {
	case 8:
		return "x", true
	case 9:
		return nil, b&16 == 0
	case 10:
		return math.NaN(), true
	case 11:
		return math.Inf(1 - 2*int(b&16>>4)), true
	default:
		return float64(b%4) - 1, true
	}
}

// FuzzTriggerPlanMatchesOracle decodes bytes into a feed over three streams
// and holds the engine to the join oracle on it: every event must make
// every statement of fuzzPlanStatements emit what the oracle's recompute
// emits, and fail exactly when it fails.
func FuzzTriggerPlanMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 0, 1, 1, 2, 3, 0})
	f.Add([]byte{2, 1, 2, 3, 1, 1, 0, 1, 2, 1, 1, 1, 0, 1, 2, 10, 1, 0, 0, 1, 2, 3, 1, 0})
	f.Add([]byte{1, 0, 0, 8, 0, 0, 0, 0, 0, 1, 1, 0, 0, 9, 25, 11, 27, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("hostile feed: NaN \x0a and \x0b infinities, x \x08 and NULL \x09"))
	f.Add([]byte{0, 2, 2, 10, 10, 2, 1, 2, 2, 10, 10, 2, 0, 2, 2, 10, 10, 2, 2, 2, 2, 3, 1, 1})
	// A filter failure on z, the item before the pair's class in FROM
	// order, then a trigger whose a and b differ: pair must fail on z.
	f.Add([]byte{2, 1, 1, 1, 1, 8, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 2, 1})
	// Events are six bytes: stream, loc, hour, a, b, v. latest: aux rows
	// replace each other under the bus trigger, one with a filter failure.
	f.Add([]byte{1, 1, 2, 3, 1, 1, 0, 1, 2, 1, 1, 1, 1, 1, 2, 0, 8, 1, 0, 1, 2, 1, 1, 1, 1, 1, 2, 2, 1, 1, 0, 1, 2, 1, 1, 1})
	// grouplast: one location's rows replace each other, a NaN and an
	// infinity among them.
	f.Add([]byte{0, 1, 1, 2, 2, 1, 0, 1, 1, 3, 1, 1, 0, 2, 1, 10, 2, 1, 0, 1, 1, 1, 3, 1, 0, 1, 1, 11, 2, 1, 0, 1, 1, 2, 2, 1})
	// single: thr triggers read the one bus row of their hour.
	f.Add([]byte{0, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 0, 1, 1, 2, 1, 3, 2, 1, 1, 1, 1, 1, 0, 2, 1, 0, 1, 10, 2, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		rig := newOracleRig()
		for _, name := range []string{"cross", "filtered", "grouplast", "keyed", "latest", "listing1", "pair", "single", "trigger"} {
			rig.add(t, name, fuzzPlanStatements[name])
		}
		for i := 0; r.pos < len(r.data) && i < 200; i++ {
			stream := [3]string{"bus", "aux", "thr"}[r.byte()%3]
			fields := map[string]Value{}
			for _, k := range [5]string{"loc", "hour", "a", "b", "v"} {
				if v, ok := fuzzFeedValue(r); ok {
					fields[k] = v
				}
			}
			rig.send(t, i, stream, fields)
		}
	})
}
