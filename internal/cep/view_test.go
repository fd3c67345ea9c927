package cep

import (
	"testing"
	"time"

	"trafficcep/internal/epl"
)

// viewSchema is the slot table the directly-built windows of this file
// resolve their key fields through; mkEvent binds against it, so a test
// builds its window before its events.
var viewSchema = newStreamSchema()

// mkEvent builds a bare bound event for direct window testing.
func mkEvent(ts int, fields map[string]Value) *Event {
	ev := &Event{Stream: "s", Ts: time.Unix(int64(ts), 0), Fields: fields}
	viewSchema.bind(ev)
	return ev
}

func ids(evs []*Event) []int {
	out := make([]int, len(evs))
	for i, e := range evs {
		n, _ := numeric(e.Get("id"))
		out[i] = int(n)
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildFromSpec(t *testing.T, spec string) window {
	t.Helper()
	q, err := epl.Parse("SELECT * FROM s." + spec + " AS e")
	if err != nil {
		t.Fatalf("parse %s: %v", spec, err)
	}
	w, err := buildWindow(q.From[0].Views, viewSchema)
	if err != nil {
		t.Fatalf("build %s: %v", spec, err)
	}
	return w
}

func TestLastEventWindow(t *testing.T) {
	w := buildFromSpec(t, "std:lastevent()")
	if w.size() != 0 || len(contents(w)) != 0 {
		t.Fatal("empty window must be empty")
	}
	a := mkEvent(1, map[string]Value{"id": 1})
	if evicted := w.insert(a); evicted != nil {
		t.Fatalf("first insert evicted %v", evicted.Fields)
	}
	b := mkEvent(2, map[string]Value{"id": 2})
	if evicted := w.insert(b); evicted != a {
		t.Fatalf("second insert must evict the first")
	}
	if !eqInts(ids(contents(w)), []int{2}) {
		t.Fatalf("contents = %v", ids(contents(w)))
	}
}

func TestLengthWindowRing(t *testing.T) {
	w := buildFromSpec(t, "win:length(3)")
	var evicted []int
	for i := 1; i <= 7; i++ {
		if ev := w.insert(mkEvent(i, map[string]Value{"id": i})); ev != nil {
			evicted = append(evicted, ids([]*Event{ev})...)
		}
	}
	if !eqInts(ids(contents(w)), []int{5, 6, 7}) {
		t.Fatalf("contents = %v", ids(contents(w)))
	}
	if !eqInts(evicted, []int{1, 2, 3, 4}) {
		t.Fatalf("evicted = %v", evicted)
	}
	if w.size() != 3 {
		t.Fatalf("size = %d", w.size())
	}
}

func TestKeepAllWindowGrows(t *testing.T) {
	w := buildFromSpec(t, "win:keepall()")
	for i := 1; i <= 100; i++ {
		if w.insert(mkEvent(i, map[string]Value{"id": i})) != nil {
			t.Fatal("keepall must never evict")
		}
	}
	if w.size() != 100 {
		t.Fatalf("size = %d", w.size())
	}
}

func TestGroupWinSubWindows(t *testing.T) {
	w := buildFromSpec(t, "std:groupwin(k).win:length(2)")
	for i := 1; i <= 6; i++ {
		k := "a"
		if i%2 == 0 {
			k = "b"
		}
		w.insert(mkEvent(i, map[string]Value{"id": i, "k": k}))
	}
	// Group a holds {3,5}, group b {4,6}; contents lists groups in key order.
	if !eqInts(ids(contents(w)), []int{3, 5, 4, 6}) {
		t.Fatalf("contents = %v", ids(contents(w)))
	}
	if w.size() != 4 {
		t.Fatalf("size = %d", w.size())
	}
}

func TestGroupWinWithoutSubViewKeepsAll(t *testing.T) {
	w := buildFromSpec(t, "std:groupwin(k)")
	for i := 1; i <= 10; i++ {
		w.insert(mkEvent(i, map[string]Value{"id": i, "k": i % 2}))
	}
	if w.size() != 10 {
		t.Fatalf("size = %d, want 10 (keepall per group)", w.size())
	}
}

func TestNoViewDefaultsToKeepAll(t *testing.T) {
	q, err := epl.Parse("SELECT * FROM s AS e")
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWindow(q.From[0].Views, viewSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.insert(mkEvent(i, map[string]Value{"id": i}))
	}
	if w.size() != 5 {
		t.Fatalf("size = %d", w.size())
	}
}

func TestBuildWindowErrors(t *testing.T) {
	bad := [][]epl.ViewSpec{
		{{Namespace: "std", Name: "groupwin", Args: []epl.Expr{&epl.NumberLit{Value: 1}}}},
		{{Namespace: "win", Name: "length", Args: []epl.Expr{&epl.NumberLit{Value: 0}}}},
		{{Namespace: "win", Name: "length", Args: []epl.Expr{&epl.NumberLit{Value: 2.5}}}},
		{{Namespace: "win", Name: "length", Args: []epl.Expr{&epl.StringLit{Value: "x"}}}},
		{{Namespace: "win", Name: "nosuch"}},
		{ // two non-group views chained
			{Namespace: "win", Name: "length", Args: []epl.Expr{&epl.NumberLit{Value: 2}}},
			{Namespace: "win", Name: "keepall"},
		},
		{ // groupwin followed by two views
			{Namespace: "std", Name: "groupwin", Args: []epl.Expr{&epl.FieldRef{Field: "k"}}},
			{Namespace: "win", Name: "length", Args: []epl.Expr{&epl.NumberLit{Value: 2}}},
			{Namespace: "win", Name: "keepall"},
		},
	}
	for i, views := range bad {
		if _, err := buildWindow(views, viewSchema); err == nil {
			t.Errorf("case %d: expected error for %v", i, views)
		}
	}
}
