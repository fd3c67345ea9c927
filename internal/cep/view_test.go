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

// refused reports whether buildWindow refuses a view chain.
func refused(t *testing.T, spec string) bool {
	t.Helper()
	src := "SELECT * FROM s AS e"
	if spec != "" {
		src = "SELECT * FROM s." + spec + " AS e"
	}
	q, err := epl.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", spec, err)
	}
	_, err = buildWindow(q.From[0].Views, viewSchema)
	return err != nil
}

// TestKeepAllWindowGrows: win:keepall() grows with every event, so no window
// is one: buildWindow refuses it, and a statement reading one is refused at
// registration (TestIncrementalStrategySelection/keepall_window_refused).
func TestKeepAllWindowGrows(t *testing.T) {
	if !refused(t, "win:keepall()") {
		t.Fatal("a keep-all window was built")
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

// TestGroupWinWithoutSubViewKeepsAll: std:groupwin(k) with no length view
// would keep every event of each group: buildWindow refuses it
// (TestIncrementalStrategySelection/unbounded_group_refused).
func TestGroupWinWithoutSubViewKeepsAll(t *testing.T) {
	for _, spec := range []string{"std:groupwin(k)", "std:groupwin(k).win:keepall()"} {
		if !refused(t, spec) {
			t.Fatalf("%s was built", spec)
		}
	}
}

// TestNoViewDefaultsToKeepAll: a stream read through no view would keep
// every event: buildWindow refuses the empty chain
// (TestIncrementalStrategySelection/no_view_refused).
func TestNoViewDefaultsToKeepAll(t *testing.T) {
	if !refused(t, "") {
		t.Fatal("a window was built for no view")
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
