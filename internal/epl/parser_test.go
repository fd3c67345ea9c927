package epl

import (
	"strings"
	"testing"
)

// listing1 is the generic rule template of the paper (Listing 1), with a
// concrete window length.
const listing1 = `
SELECT *
FROM bus.std:lastevent() AS bd,
     bus.std:groupwin(location).win:length(10) AS bd2,
     thresholdLocation.win:keepall() AS thresholds
WHERE bd.hour = thresholds.hour AND bd.day = thresholds.day
  AND bd.location = thresholds.location AND bd.location = bd2.location
GROUP BY bd2.location
HAVING avg(bd2.attribute) > avg(thresholds.attribute)`

func TestParseListing1(t *testing.T) {
	q, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || !q.Select[0].Star {
		t.Fatalf("select = %+v, want single star", q.Select)
	}
	if len(q.From) != 3 {
		t.Fatalf("from items = %d, want 3", len(q.From))
	}
	bd := q.From[0]
	if bd.Stream != "bus" || bd.Alias != "bd" || len(bd.Views) != 1 ||
		bd.Views[0].Namespace != "std" || bd.Views[0].Name != "lastevent" {
		t.Fatalf("bad first from item: %+v", bd)
	}
	bd2 := q.From[1]
	if bd2.Alias != "bd2" || len(bd2.Views) != 2 {
		t.Fatalf("bad second from item: %+v", bd2)
	}
	if bd2.Views[0].Name != "groupwin" || bd2.Views[1].Name != "length" {
		t.Fatalf("bad view chain: %v", bd2.Views)
	}
	if n, ok := bd2.Views[1].Args[0].(*NumberLit); !ok || n.Value != 10 {
		t.Fatalf("bad length arg: %v", bd2.Views[1].Args)
	}
	th := q.From[2]
	if th.Stream != "thresholdLocation" || th.Views[0].Name != "keepall" {
		t.Fatalf("bad thresholds item: %+v", th)
	}
	if q.Where == nil || q.Having == nil || len(q.GroupBy) != 1 {
		t.Fatal("missing WHERE/HAVING/GROUP BY")
	}
	if !HasAggregate(q.Having) {
		t.Fatal("HAVING must contain aggregates")
	}
	if HasAggregate(q.Where) {
		t.Fatal("WHERE must not contain aggregates")
	}
}

// roundTripQueries parse, and render to a string that parses to the same
// rendering.
var roundTripQueries = []string{
	listing1,
	`SELECT a.x AS foo, avg(b.y) FROM s.win:length(5) AS a, t.win:keepall() AS b WHERE a.k = b.k GROUP BY a.k HAVING avg(b.y) > 3`,
	`SELECT DISTINCT x FROM s.std:lastevent() AS e`,
	`SELECT x + 2 * y - 1 FROM s.win:keepall() AS e WHERE NOT (x = 1 OR y != 2)`,
}

func TestParseRoundTrip(t *testing.T) {
	for _, src := range roundTripQueries {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rendered := q1.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse %q (rendered from %q): %v", rendered, src, err)
		}
		if q2.String() != rendered {
			t.Fatalf("round trip not stable:\n1: %s\n2: %s", rendered, q2.String())
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	q := MustParse(`SELECT * FROM s.std:lastevent() AS e WHERE a = 1 AND b = 2 OR c = 3`)
	or, ok := q.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top op = %v, want OR", q.Where)
	}
	and, ok := or.Left.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("left of OR = %v, want AND", or.Left)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	q := MustParse(`SELECT a + b * c FROM s.std:lastevent() AS e`)
	add, ok := q.Select[0].Expr.(*BinaryExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("top = %v, want +", q.Select[0].Expr)
	}
	mul, ok := add.Right.(*BinaryExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("right = %v, want *", add.Right)
	}
}

func TestParseUnaryMinusFoldsNumbers(t *testing.T) {
	q := MustParse(`SELECT * FROM s.std:lastevent() AS e WHERE x > -5.5`)
	cmp := q.Where.(*BinaryExpr)
	n, ok := cmp.Right.(*NumberLit)
	if !ok || n.Value != -5.5 {
		t.Fatalf("right = %v, want -5.5 literal", cmp.Right)
	}
}

func TestParseStringEscapes(t *testing.T) {
	q := MustParse(`SELECT * FROM s.std:lastevent() AS e WHERE name = 'O''Connell'`)
	cmp := q.Where.(*BinaryExpr)
	s, ok := cmp.Right.(*StringLit)
	if !ok || s.Value != "O'Connell" {
		t.Fatalf("right = %#v, want O'Connell", cmp.Right)
	}
}

func TestParseUnidirectional(t *testing.T) {
	q := MustParse(`SELECT * FROM bus.std:lastevent() AS bd UNIDIRECTIONAL, t.win:keepall() AS th WHERE bd.k = th.k`)
	if !q.From[0].Unidirectional {
		t.Fatal("first item should be unidirectional")
	}
	if q.From[1].Unidirectional {
		t.Fatal("second item should not be unidirectional")
	}
}

func TestParseDefaultAliasIsStreamName(t *testing.T) {
	q := MustParse(`SELECT * FROM bus.std:lastevent()`)
	if q.From[0].Alias != "bus" {
		t.Fatalf("alias = %q, want bus", q.From[0].Alias)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse(`select * from bus.std:lastevent() as bd where bd.x > 1 group by bd.y having avg(bd.x) > 2`)
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Alias != "bd" {
		t.Fatal("lower-case keywords must parse")
	}
}

// parseErrorCases are rejected queries and a fragment of each error.
var parseErrorCases = []struct {
	src  string
	want string
}{
	{``, "expected SELECT"},
	{`SELECT`, "unexpected"},
	{`SELECT * FROM`, "expected identifier"},
	{`SELECT * FROM s.std:lastevent() AS a, t.win:keepall() AS a`, "duplicate stream alias"},
	{`SELECT * FROM s.std:nosuchview() AS a`, "unknown view"},
	{`SELECT * FROM s.win:length() AS a`, "takes 1 argument"},
	{`SELECT * FROM s.std:lastevent(1) AS a`, "takes 0 argument"},
	{`SELECT * FROM s.std:groupwin() AS a`, "at least one argument"},
	{`SELECT * FROM s.std:groupwin(1) AS a`, "must be field names"},
	{`SELECT * FROM s.std:lastevent() AS a WHERE avg(a.x) > 1`, "not allowed in WHERE"},
	{`SELECT * FROM s.std:lastevent() AS a GROUP BY avg(a.x)`, "not allowed in GROUP BY"},
	{`SELECT * FROM s.std:lastevent() AS a WHERE b.x = 1`, "unknown stream alias"},
	{`SELECT * FROM s.std:lastevent() AS a WHERE x = `, "unexpected"},
	{`SELECT * FROM s.std:lastevent() AS a extra`, "after end of query"},
	{`SELECT * FROM s.std:lastevent() AS a WHERE 'unterminated`, "unterminated string"},
	{`SELECT * FROM s.std:lastevent() AS a WHERE x ! 1`, "unexpected '!'"},
	{`SELECT * FROM s.std:lastevent() AS a WHERE x = #`, "unexpected character"},
	{`SELECT * FROM s.std:lastevent() AS a WHERE (x = 1`, "expected )"},
	// The grammar is the paper's rule template: other Esper views and
	// clauses are syntax errors.
	{`SELECT a.x AS foo, avg(b.y) FROM s.win:length(5) AS a, t.win:keepall() AS b WHERE a.k = b.k GROUP BY a.k HAVING avg(b.y) > 3 ORDER BY a.x DESC`, `unexpected "ORDER" after end of query`},
	{`SELECT * FROM bus.win:time(30 sec) AS b`, "unknown view win:time"},
	{`SELECT count(*) FROM s.win:length_batch(100) AS w`, "unknown view win:length_batch"},
	{`SELECT * FROM s.win:time_batch(30) AS w`, "unknown view win:time_batch"},
	{`SELECT * FROM s.std:unique(k) AS w`, "unknown view std:unique"},
	{`INSERT INTO out SELECT * FROM s.std:lastevent() AS e`, "expected SELECT"},
	{`SELECT * FROM s.win:length(30 sec) AS a`, "expected )"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("SELECT x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != 1 || toks[1].Pos != 8 {
		t.Fatalf("positions = %d,%d, want 1,8", toks[0].Pos, toks[1].Pos)
	}
}

func TestLexNumberForms(t *testing.T) {
	toks, err := Lex("1 2.5 3e2 4.5E-1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", "3e2", "4.5E-1"}
	for i, w := range want {
		if toks[i].Kind != TokNumber || toks[i].Text != w {
			t.Fatalf("token %d = %+v, want number %q", i, toks[i], w)
		}
	}
}

func TestLexDotAfterNumberNotDecimal(t *testing.T) {
	// "win:length(10).win:keepall()" — the dot after ")" and the number
	// must not merge; also "10.win" style cannot occur, but guard anyway.
	toks, err := Lex("10.win")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokNumber || toks[0].Text != "10" {
		t.Fatalf("first = %+v", toks[0])
	}
	if toks[1].Kind != TokDot {
		t.Fatalf("second = %+v, want dot", toks[1])
	}
}

func TestCountStar(t *testing.T) {
	q := MustParse(`SELECT count(*) AS n FROM s.win:length(3) AS e`)
	c, ok := q.Select[0].Expr.(*CallExpr)
	if !ok || !c.Star || c.Func != "count" {
		t.Fatalf("got %#v", q.Select[0].Expr)
	}
	if q.Select[0].Alias != "n" {
		t.Fatalf("alias = %q", q.Select[0].Alias)
	}
}

func TestFieldRefsCollection(t *testing.T) {
	q := MustParse(`SELECT * FROM s.std:lastevent() AS a WHERE a.x = 1 AND a.y > a.z`)
	refs := FieldRefs(q.Where)
	if len(refs) != 3 {
		t.Fatalf("refs = %d, want 3", len(refs))
	}
}

func TestSyntaxErrorType(t *testing.T) {
	_, err := Parse("nonsense")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T, want *SyntaxError", err)
	}
	if se.Pos <= 0 {
		t.Fatalf("pos = %d", se.Pos)
	}
}
