package epl

import (
	"strings"
	"testing"
)

func TestWalkExprVisitsAllNodes(t *testing.T) {
	q := MustParse(`SELECT avg(a.x + 1) AS m FROM s.std:lastevent() AS a WHERE NOT (a.y = 2 OR a.z < abs(a.w))`)
	count := 0
	WalkExpr(q.Where, func(Expr) { count++ })
	// NOT, OR, =, <, abs, and the leaves: a.y, 2, a.z, a.w → 9 nodes.
	if count != 9 {
		t.Fatalf("visited %d nodes, want 9", count)
	}
	WalkExpr(nil, func(Expr) { t.Fatal("nil expr must not visit") })
}

func TestHasAggregateNil(t *testing.T) {
	if HasAggregate(nil) {
		t.Fatal("nil has no aggregates")
	}
}

func TestExprStringRendering(t *testing.T) {
	cases := map[string]string{
		`SELECT a - -2 FROM s`:      "(a - -2)",
		`SELECT NOT (a = 1) FROM s`: "(NOT (a = 1))",
		`SELECT count(*) FROM s`:    "count(*)",
		`SELECT abs(a) FROM s`:      "abs(a)",
		`SELECT 'it''s' FROM s`:     "'it''s'",
		`SELECT true FROM s`:        "true",
		`SELECT false FROM s`:       "false",
		`SELECT a.b FROM s AS a`:    "a.b",
		`SELECT 1.5 FROM s`:         "1.5",
		`SELECT a * (b + c) FROM s`: "(a * (b + c))",
	}
	for src, want := range cases {
		q := MustParse(src)
		if got := q.Select[0].Expr.String(); got != want {
			t.Errorf("%q rendered %q, want %q", src, got, want)
		}
	}
}

func TestQueryStringFullClause(t *testing.T) {
	src := `SELECT DISTINCT a.x AS v FROM s.win:length(3) AS a, t.win:keepall() AS b UNIDIRECTIONAL WHERE a.k = b.k GROUP BY a.k, a.x HAVING avg(a.x) > 1`
	q := MustParse(src)
	rendered := q.String()
	for _, frag := range []string{
		"SELECT DISTINCT", "AS v",
		"s.win:length(3) AS a", "t.win:keepall() AS b UNIDIRECTIONAL",
		"WHERE", "GROUP BY a.k, a.x", "HAVING",
	} {
		if !strings.Contains(rendered, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, rendered)
		}
	}
	// Round trip is stable.
	if MustParse(rendered).String() != rendered {
		t.Fatal("round trip unstable")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse must panic on bad input")
		}
	}()
	MustParse("garbage")
}

func TestUnaryMinusOnFieldRenders(t *testing.T) {
	q := MustParse(`SELECT -a FROM s`)
	if got := q.Select[0].Expr.String(); got != "(-a)" {
		t.Fatalf("got %q", got)
	}
}
