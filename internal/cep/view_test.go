package cep

import (
	"sort"
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

func id(e *Event) int {
	n, _ := numeric(e.Get("id"))
	return int(n)
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

// ringReplay writes each event a window took into the position insert
// returned, the way the trigger plan's value rings do, and logs the ids
// it overwrote.
type ringReplay struct {
	slots   map[int]int // position → id of the event written there last
	evicted []int
}

func (r *ringReplay) take(t *testing.T, w window, ev *Event) {
	t.Helper()
	pos, occupied := w.insert(ev)
	old, held := r.slots[pos]
	if occupied != held {
		t.Fatalf("insert of %d: position %d occupied=%v, replay holds it: %v", id(ev), pos, occupied, held)
	}
	if held {
		r.evicted = append(r.evicted, old)
	}
	if r.slots == nil {
		r.slots = map[int]int{}
	}
	r.slots[pos] = id(ev)
}

// held lists the ids the replayed ring holds, in position order.
func (r *ringReplay) held() []int {
	pos := make([]int, 0, len(r.slots))
	for p := range r.slots {
		pos = append(pos, p)
	}
	sort.Ints(pos)
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = r.slots[p]
	}
	return out
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
	if w.size() != 0 {
		t.Fatal("empty window must be empty")
	}
	var r ringReplay
	r.take(t, w, mkEvent(1, map[string]Value{"id": 1}))
	r.take(t, w, mkEvent(2, map[string]Value{"id": 2}))
	if !eqInts(r.held(), []int{2}) || !eqInts(r.evicted, []int{1}) || w.size() != 1 {
		t.Fatalf("held %v, evicted %v, size %d", r.held(), r.evicted, w.size())
	}
}

func TestLengthWindowRing(t *testing.T) {
	w := buildFromSpec(t, "win:length(3)")
	var r ringReplay
	for i := 1; i <= 7; i++ {
		r.take(t, w, mkEvent(i, map[string]Value{"id": i}))
	}
	// Positions are written in turn: 7 went to 0, over 4, over 1.
	if !eqInts(r.held(), []int{7, 5, 6}) {
		t.Fatalf("held = %v", r.held())
	}
	if !eqInts(r.evicted, []int{1, 2, 3, 4}) {
		t.Fatalf("evicted = %v", r.evicted)
	}
	if w.size() != 3 {
		t.Fatalf("size = %d", w.size())
	}
}

func TestKeepAllWindowGrows(t *testing.T) {
	w := buildFromSpec(t, "win:keepall()")
	for i := 1; i <= 100; i++ {
		if pos, occupied := w.insert(mkEvent(i, map[string]Value{"id": i})); occupied || pos != i-1 {
			t.Fatalf("insert %d took position %d (occupied %v); keepall must never evict", i, pos, occupied)
		}
	}
	if w.size() != 100 {
		t.Fatalf("size = %d", w.size())
	}
}

func TestGroupWinSubWindows(t *testing.T) {
	w := buildFromSpec(t, "std:groupwin(k).win:length(2)")
	// A group window's positions are those of the group the event went to.
	replays := map[string]*ringReplay{"a": {}, "b": {}}
	for i := 1; i <= 6; i++ {
		k := "a"
		if i%2 == 0 {
			k = "b"
		}
		replays[k].take(t, w, mkEvent(i, map[string]Value{"id": i, "k": k}))
	}
	// Group a holds {5,3}, group b {6,4}, by position.
	if a, b := replays["a"].held(), replays["b"].held(); !eqInts(a, []int{5, 3}) || !eqInts(b, []int{6, 4}) {
		t.Fatalf("held = %v, %v", a, b)
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
