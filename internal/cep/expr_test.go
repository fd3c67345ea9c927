package cep

import (
	"strings"
	"testing"
	"testing/quick"

	"trafficcep/internal/epl"
)

// evalStr parses a standalone expression and evaluates it against a row
// of a table aliased r, through a row query.
func evalStr(t *testing.T, src string, row map[string]Value) (Value, error) {
	t.Helper()
	q := CompileRowQuery("r", nil, []epl.Expr{mustParseExpr(t, src)})
	if _, err := q.Match(row); err != nil {
		t.Fatalf("%q: a row query without WHERE failed its match: %v", src, err)
	}
	return q.Value(0)
}

func mustParseExpr(t *testing.T, src string) epl.Expr {
	t.Helper()
	e, err := parseExprString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

// parseExprString wraps the expression into a query to reuse the parser.
func parseExprString(src string) (epl.Expr, error) {
	q, err := epl.Parse("SELECT " + src + " AS x FROM s AS r")
	if err != nil {
		return nil, err
	}
	return q.Select[0].Expr, nil
}

func TestEvalArithmetic(t *testing.T) {
	row := map[string]Value{"a": 6.0, "b": 3.0, "s": "hi"}
	cases := map[string]Value{
		"a + b":           9.0,
		"a - b":           3.0,
		"a * b":           18.0,
		"a / b":           2.0,
		"a + b * 2":       12.0,
		"(a + b) * 2":     18.0,
		"-a + 1":          -5.0,
		"a > b":           true,
		"a < b":           false,
		"a >= 6":          true,
		"a <= 5.9":        false,
		"a = 6":           true,
		"a != 6":          false,
		"s = 'hi'":        true,
		"s != 'bye'":      true,
		"s + 'x'":         "hix",
		"a > 1 AND b > 1": true,
		"a > 10 OR b > 1": true,
		"NOT (a > 10)":    true,
		"true":            true,
		"false":           false,
	}
	for src, want := range cases {
		got, err := evalStr(t, src, row)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if !valueEq(got, want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	row := map[string]Value{"a": 1.0, "s": "x"}
	cases := []string{
		"a / 0",
		"s * 2",
		"-s",
		"NOT a",     // number is not boolean
		"s < 1",     // string vs number comparison
		"nosuch(a)", // unknown function
		"avg(a)",    // aggregate outside aggregation context
	}
	for _, src := range cases {
		if _, err := evalStr(t, src, row); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestEvalMissingFieldIsNil(t *testing.T) {
	// Qualified access to a missing field yields nil (SQL NULL-ish);
	// comparing nil with = works, ordering does not.
	v, err := evalStr(t, "r.missing = 1", map[string]Value{"a": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if v != false {
		t.Fatalf("nil = 1 should be false, got %v", v)
	}
	if _, err := evalStr(t, "r.missing > 1", map[string]Value{"a": 1.0}); err == nil {
		t.Fatal("ordering against nil must error")
	}
}

func TestEvalUnqualifiedMissingFieldErrors(t *testing.T) {
	if _, err := evalStr(t, "missing + 1", map[string]Value{"a": 1.0}); err == nil {
		t.Fatal("unqualified missing field must error")
	}
}

func TestValueEqCoercion(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{1, 1.0, true},
		{int64(2), 2, true},
		{float32(1.5), 1.5, true},
		{true, 1.0, false}, // booleans are not numeric (see TestBoolIsNotNumeric)
		{false, 0, false},
		{true, true, true}, // bool = bool still compares directly
		{true, false, false},
		{"a", "a", true},
		{"a", "b", false},
		{"1", 1.0, false}, // no string→number coercion
		{nil, nil, true},
		{nil, 0.0, false},
	}
	for _, c := range cases {
		if got := valueEq(c.a, c.b); got != c.want {
			t.Errorf("valueEq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueKeyConsistentWithEq(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := Value(int(a)), Value(float64(b))
		if valueEq(va, vb) {
			return valueKey(va) == valueKey(vb)
		}
		return valueKey(va) != valueKey(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueKeyStringsVsNumbers(t *testing.T) {
	if valueKey("1") == valueKey(1.0) {
		t.Fatal("string '1' must not collide with number 1")
	}
	if valueKey(nil) == valueKey(0.0) {
		t.Fatal("nil must not collide with 0")
	}
}

func TestCompositeKeySeparation(t *testing.T) {
	// ("ab", "c") must differ from ("a", "bc").
	a := appendCompositeKey(nil, []Value{"ab", "c"})
	b := appendCompositeKey(nil, []Value{"a", "bc"})
	if string(a) == string(b) {
		t.Fatal("composite keys collide across boundaries")
	}
	if len(appendCompositeKey(nil, nil)) != 0 {
		t.Fatal("empty composite key")
	}
	if got, want := string(appendCompositeKey(nil, []Value{"x", 2.0})), valueKey("x")+string(keySep)+valueKey(2.0); got != want {
		t.Fatalf("composite key %q, want the value keys joined: %q", got, want)
	}
}

func TestValueCompare(t *testing.T) {
	if c, err := valueCompare(1.0, 2); err != nil || c != -1 {
		t.Fatalf("1 vs 2 = %d, %v", c, err)
	}
	if c, err := valueCompare("b", "a"); err != nil || c != 1 {
		t.Fatalf("b vs a = %d, %v", c, err)
	}
	if c, err := valueCompare("a", "a"); err != nil || c != 0 {
		t.Fatalf("a vs a = %d, %v", c, err)
	}
	if _, err := valueCompare([]int{1}, 1); err == nil {
		t.Fatal("uncomparable types must error")
	}
}

func TestAggregateNullHandling(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT avg(w.x) AS m, sum(w.x) AS s, min(w.x) AS lo FROM s.win:keepall() AS w`)
	if err != nil {
		t.Fatal(err)
	}
	var last []Output
	st.AddListener(func(_ *Statement, outs []Output) { last = outs })
	// First event has no x at all: aggregates over zero non-null values
	// are nil (SQL semantics).
	if err := e.SendEvent("s", map[string]Value{"y": 1.0}); err != nil {
		t.Fatal(err)
	}
	if last[0].Fields["m"] != nil || last[0].Fields["s"] != nil || last[0].Fields["lo"] != nil {
		t.Fatalf("aggregates over empty set should be nil: %v", last[0].Fields)
	}
	if err := e.SendEvent("s", map[string]Value{"x": 4.0}); err != nil {
		t.Fatal(err)
	}
	if last[0].Fields["m"] != 4.0 {
		t.Fatalf("avg = %v", last[0].Fields["m"])
	}
}

func TestStddevRequiresTwoValues(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT stddev(w.x) AS sd FROM s.win:keepall() AS w`)
	if err != nil {
		t.Fatal(err)
	}
	var last []Output
	st.AddListener(func(_ *Statement, outs []Output) { last = outs })
	if err := e.SendEvent("s", map[string]Value{"x": 1.0}); err != nil {
		t.Fatal(err)
	}
	if last[0].Fields["sd"] != nil {
		t.Fatalf("stddev of one value should be nil, got %v", last[0].Fields["sd"])
	}
}

func TestAggregateOverNonNumericErrors(t *testing.T) {
	e := New()
	if _, err := e.AddStatement("r", `SELECT avg(w.x) AS m FROM s.win:keepall() AS w`); err != nil {
		t.Fatal(err)
	}
	if err := e.SendEvent("s", map[string]Value{"x": "oops"}); err == nil ||
		!strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("err = %v", err)
	}
}

// TestRowQueryWhere: a row query's WHERE passes a row on true, rejects it
// on false or NULL, and fails on a non-boolean; one query serves rows in
// turn.
func TestRowQueryWhere(t *testing.T) {
	q := CompileRowQuery("r", mustParseExpr(t, "a > 1"), nil)
	for _, c := range []struct {
		a    Value
		want bool
	}{{2.0, true}, {0.0, false}, {3, true}} {
		if ok, err := q.Match(map[string]Value{"a": c.a}); err != nil || ok != c.want {
			t.Fatalf("a = %v: got %v, %v, want %v", c.a, ok, err, c.want)
		}
	}
	if ok, err := CompileRowQuery("r", mustParseExpr(t, "r.gone"), nil).Match(map[string]Value{"a": 2.0}); err != nil || ok {
		t.Fatalf("a NULL WHERE: got %v, %v, want a rejected row", ok, err)
	}
	if _, err := CompileRowQuery("r", mustParseExpr(t, "a + 1"), nil).Match(map[string]Value{"a": 2.0}); err == nil {
		t.Fatal("non-boolean must error")
	}
}

func TestNumericExported(t *testing.T) {
	if v, ok := Numeric(int64(3)); !ok || v != 3 {
		t.Fatalf("Numeric(int64) = %v, %v", v, ok)
	}
	if _, ok := Numeric("x"); ok {
		t.Fatal("string is not numeric")
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	// The right side of AND/OR must not be evaluated when the left side
	// decides — an erroring right side proves it.
	row := map[string]Value{"a": 1.0, "s": "x"}
	v, err := evalStr(t, "a > 5 AND s < 1", row) // s<1 would error
	if err != nil || v != false {
		t.Fatalf("AND short circuit: %v, %v", v, err)
	}
	v, err = evalStr(t, "a > 0 OR s < 1", row)
	if err != nil || v != true {
		t.Fatalf("OR short circuit: %v, %v", v, err)
	}
}

// TestBoolIsNotNumeric pins the coercion contract fixed in this revision:
// booleans are NOT silently coerced to 0/1. A boolean participates in
// equality against another boolean and in truthiness, nothing else —
// exactly like SQL's boolean type. Previously numeric() mapped
// true→1/false→0, so `true = 1` held and `(a < b) * 2` evaluated; both now
// fail, for both the interpreter and compiled closures.
func TestBoolIsNotNumeric(t *testing.T) {
	if _, ok := numeric(true); ok {
		t.Fatal("numeric(true) must fail")
	}
	if _, ok := numeric(false); ok {
		t.Fatal("numeric(false) must fail")
	}
	if _, err := valueCompare(true, 1.0); err == nil {
		t.Fatal("ordering bool against number must error")
	}
	row := map[string]Value{"a": 1.0, "b": 2.0, "f": true}
	// Arithmetic on a boolean errors.
	if _, err := evalStr(t, "(a < b) * 2", row); err == nil {
		t.Fatal("(a < b) * 2 must error: comparisons yield booleans, not 0/1")
	}
	if _, err := evalStr(t, "f + 1", row); err == nil {
		t.Fatal("bool + number must error")
	}
	// Aggregating booleans errors (engine-level, non-numeric input).
	e := New()
	if _, err := e.AddStatement("r", `SELECT sum(w.f) AS s FROM s.win:keepall() AS w`); err != nil {
		t.Fatal(err)
	}
	if err := e.SendEvent("s", map[string]Value{"f": true}); err == nil ||
		!strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("sum(bool) err = %v", err)
	}
	// What still works: bool = bool, truthiness, NOT.
	for src, want := range map[string]Value{
		"f = true":   true,
		"f != false": true,
		"NOT f":      false,
		"f AND a<b":  true,
	} {
		got, err := evalStr(t, src, row)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got != want {
			t.Fatalf("%q = %v, want %v", src, got, want)
		}
	}
}

// TestScalarCoercionEdges covers the narrow-type corners of numeric
// coercion through full expression evaluation.
func TestScalarCoercionEdges(t *testing.T) {
	// float32 widens exactly for representable values.
	v, err := evalStr(t, "a * 2", map[string]Value{"a": float32(1.5)})
	if err != nil || v != 3.0 {
		t.Fatalf("float32 widen: %v, %v", v, err)
	}
	// int64 beyond 2^53 loses precision on conversion to float64; the
	// engine's numeric domain is float64, so equality follows float64.
	big := int64(1) << 60
	v, err = evalStr(t, "a + 0", map[string]Value{"a": big})
	if err != nil {
		t.Fatal(err)
	}
	if v != float64(big) {
		t.Fatalf("int64 2^60 = %v, want %v", v, float64(big))
	}
	if !valueEq(big, big+1) == (float64(big) == float64(big+1)) {
		// Both sides collapse to the same float64: valueEq must agree
		// with float64 equality, not integer equality.
		t.Fatalf("valueEq(2^60, 2^60+1) disagrees with float64 collapse")
	}
	// nil propagation: qualified missing field is nil; nil is absorbed by
	// `=` (false) but poisons ordering and arithmetic.
	if v, err := evalStr(t, "r.gone = 1", map[string]Value{}); err != nil || v != false {
		t.Fatalf("nil = 1: %v, %v", v, err)
	}
	if _, err := evalStr(t, "r.gone + 1", map[string]Value{}); err == nil {
		t.Fatal("nil + 1 must error")
	}
	if _, err := evalStr(t, "-r.gone", map[string]Value{}); err == nil {
		t.Fatal("-nil must error")
	}
}

// TestRowQueryMatchesEval holds a row query to the reference evaluator
// over rows that have, lack or hold NULL in the fields it reads, through
// qualified, unqualified and unbound references: every expression, as a
// SELECT expression and as a WHERE, gives the value eval gives (WHERE: its
// truthiness), and an error exactly when eval errs. One compiled query
// serves the rows in turn, as it serves a table scan.
func TestRowQueryMatchesEval(t *testing.T) {
	rows := []map[string]Value{
		{"a": 2.0, "s": "x", "f": true},
		{"a": 0, "s": "y", "f": false},
		{"a": nil, "s": nil, "f": nil},
		{},
		{"a": int64(-3), "f": true},
	}
	// A reference through an alias that names no table; the parser
	// rejects one, so it is built by hand.
	unbound := &epl.FieldRef{Alias: "zz", Field: "a"}
	exprs := []epl.Expr{unbound, &epl.BinaryExpr{Op: "OR", Left: &epl.BoolLit{Value: true}, Right: unbound}}
	for _, src := range []string{
		"a", "r.a", "r.gone", "gone",
		"a > 1", "r.a < 1", "f", "r.f", "NOT f", "NOT r.f",
		"a = 2 AND s = 'x'", "r.s = 'y' OR r.f", "f AND a > 1",
		"a + 1", "r.a * 2 + 1", "s + 'z'", "-a", "-r.s",
		"s < 1", "a / 0", "r.a / r.a", "abs(r.a)", "avg(a)",
		"r.gone = 1", "r.gone > 1", "1 + 2 > 2", "NOT 3",
	} {
		exprs = append(exprs, mustParseExpr(t, src))
	}
	for _, e := range exprs {
		src := e.String()
		sel := CompileRowQuery("r", nil, []epl.Expr{e})
		where := CompileRowQuery("r", e, nil)
		for _, row := range rows {
			want, errWant := eval(e, &oracleContext{row: []*Event{{Stream: "s", Fields: row}}, aliasOrder: []string{"r"}})
			if _, err := sel.Match(row); err != nil {
				t.Fatalf("%q over %v: match without WHERE: %v", src, row, err)
			}
			got, errGot := sel.Value(0)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%q over %v: eval err=%v, row query err=%v", src, row, errWant, errGot)
			}
			if errWant == nil && valueKey(want) != valueKey(got) {
				t.Fatalf("%q over %v: eval %#v, row query %#v", src, row, want, got)
			}

			wantPass, errWant := false, errWant
			if errWant == nil {
				wantPass, errWant = truthy(want)
			}
			pass, errGot := where.Match(row)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("WHERE %q over %v: eval err=%v, row query err=%v", src, row, errWant, errGot)
			}
			if errWant == nil && pass != wantPass {
				t.Fatalf("WHERE %q over %v: eval passes %v, row query %v", src, row, wantPass, pass)
			}
		}
	}
}
