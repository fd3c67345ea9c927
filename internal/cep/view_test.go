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
	if w.size() != 0 || len(w.contents()) != 0 {
		t.Fatal("empty window must be empty")
	}
	a := mkEvent(1, map[string]Value{"id": 1})
	added, removed := w.insert(a)
	if len(added) != 1 || removed != nil {
		t.Fatalf("first insert: added=%v removed=%v", added, removed)
	}
	b := mkEvent(2, map[string]Value{"id": 2})
	added, removed = w.insert(b)
	if len(added) != 1 || len(removed) != 1 || removed[0] != a {
		t.Fatalf("second insert must evict the first")
	}
	if !eqInts(ids(w.contents()), []int{2}) {
		t.Fatalf("contents = %v", ids(w.contents()))
	}
}

func TestLengthWindowRing(t *testing.T) {
	w := buildFromSpec(t, "win:length(3)")
	var evicted []int
	for i := 1; i <= 7; i++ {
		_, removed := w.insert(mkEvent(i, map[string]Value{"id": i}))
		evicted = append(evicted, ids(removed)...)
	}
	if !eqInts(ids(w.contents()), []int{5, 6, 7}) {
		t.Fatalf("contents = %v", ids(w.contents()))
	}
	if !eqInts(evicted, []int{1, 2, 3, 4}) {
		t.Fatalf("evicted = %v", evicted)
	}
	if w.size() != 3 {
		t.Fatalf("size = %d", w.size())
	}
}

func TestLengthBatchWindowTumble(t *testing.T) {
	w := buildFromSpec(t, "win:length_batch(2)")
	w.insert(mkEvent(1, map[string]Value{"id": 1}))
	w.insert(mkEvent(2, map[string]Value{"id": 2}))
	if !eqInts(ids(w.contents()), []int{1, 2}) {
		t.Fatalf("full batch contents = %v", ids(w.contents()))
	}
	_, removed := w.insert(mkEvent(3, map[string]Value{"id": 3}))
	if !eqInts(ids(removed), []int{1, 2}) {
		t.Fatalf("batch not evicted: %v", ids(removed))
	}
	if !eqInts(ids(w.contents()), []int{3}) {
		t.Fatalf("new batch = %v", ids(w.contents()))
	}
}

func TestTimeWindowEvictsByEventTime(t *testing.T) {
	w := buildFromSpec(t, "win:time(10 sec)")
	w.insert(mkEvent(0, map[string]Value{"id": 1}))
	w.insert(mkEvent(5, map[string]Value{"id": 2}))
	_, removed := w.insert(mkEvent(12, map[string]Value{"id": 3}))
	if !eqInts(ids(removed), []int{1}) { // t=0 older than 12-10
		t.Fatalf("removed = %v", ids(removed))
	}
	if !eqInts(ids(w.contents()), []int{2, 3}) {
		t.Fatalf("contents = %v", ids(w.contents()))
	}
}

func TestTimeBatchWindowTumbles(t *testing.T) {
	w := buildFromSpec(t, "win:time_batch(10 sec)")
	w.insert(mkEvent(0, map[string]Value{"id": 1}))
	w.insert(mkEvent(5, map[string]Value{"id": 2}))
	if w.size() != 2 {
		t.Fatalf("size = %d", w.size())
	}
	// 10 s after the batch start: old batch evicted, new one starts.
	_, removed := w.insert(mkEvent(10, map[string]Value{"id": 3}))
	if !eqInts(ids(removed), []int{1, 2}) {
		t.Fatalf("removed = %v", ids(removed))
	}
	if !eqInts(ids(w.contents()), []int{3}) {
		t.Fatalf("contents = %v", ids(w.contents()))
	}
	// The next batch is anchored at t=10, so t=19 stays in it.
	w.insert(mkEvent(19, map[string]Value{"id": 4}))
	if w.size() != 2 {
		t.Fatalf("size = %d after in-batch insert", w.size())
	}
}

func TestUniqueWindowReplacesPerKey(t *testing.T) {
	w := buildFromSpec(t, "std:unique(k)")
	w.insert(mkEvent(1, map[string]Value{"id": 1, "k": "a"}))
	w.insert(mkEvent(2, map[string]Value{"id": 2, "k": "b"}))
	_, removed := w.insert(mkEvent(3, map[string]Value{"id": 3, "k": "a"}))
	if !eqInts(ids(removed), []int{1}) {
		t.Fatalf("removed = %v", ids(removed))
	}
	if !eqInts(ids(w.contents()), []int{3, 2}) { // key creation order: a, b
		t.Fatalf("contents = %v", ids(w.contents()))
	}
	if w.size() != 2 {
		t.Fatalf("size = %d", w.size())
	}
}

func TestKeepAllWindowGrows(t *testing.T) {
	w := buildFromSpec(t, "win:keepall()")
	for i := 1; i <= 100; i++ {
		_, removed := w.insert(mkEvent(i, map[string]Value{"id": i}))
		if removed != nil {
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
	// Group a holds {3,5}, group b {4,6}; iteration is group creation order.
	if !eqInts(ids(w.contents()), []int{3, 5, 4, 6}) {
		t.Fatalf("contents = %v", ids(w.contents()))
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
		{{Namespace: "win", Name: "time", Args: []epl.Expr{&epl.NumberLit{Value: -1}}}},
		{{Namespace: "win", Name: "time", Args: []epl.Expr{&epl.StringLit{Value: "x"}}}},
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

func TestTimeBatchViaEngine(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT count(*) AS n FROM s.win:time_batch(30 sec) AS w`)
	if err != nil {
		t.Fatal(err)
	}
	var last []Output
	st.AddListener(func(_ *Statement, outs []Output) { last = outs })
	t0 := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	for i, dt := range []time.Duration{0, 10 * time.Second, 35 * time.Second} {
		if err := e.SendEventAt("s", t0.Add(dt), map[string]Value{"x": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// At t=35 the first batch (t=0,10) tumbled away; count restarts at 1.
	if last[0].Fields["n"] != 1.0 {
		t.Fatalf("n = %v, want 1", last[0].Fields["n"])
	}
}

func TestUniqueViaEngine(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT sum(w.v) AS total FROM s.std:unique(k) AS w`)
	if err != nil {
		t.Fatal(err)
	}
	var last []Output
	st.AddListener(func(_ *Statement, outs []Output) { last = outs })
	send := func(k string, v float64) {
		if err := e.SendEvent("s", map[string]Value{"k": k, "v": v}); err != nil {
			t.Fatal(err)
		}
	}
	send("a", 1)
	send("b", 2)
	send("a", 10) // replaces a's 1
	if last[0].Fields["total"] != 12.0 {
		t.Fatalf("total = %v, want 12", last[0].Fields["total"])
	}
}

func TestIndexJoinsDisabledSameResults(t *testing.T) {
	run := func(disable bool) []Output {
		e := New()
		e.disableIndexJoins = disable
		st, err := e.AddStatement("r",
			`SELECT a.v AS av, b.v AS bv FROM s.std:lastevent() AS a, t.win:keepall() AS b WHERE a.k = b.k`)
		if err != nil {
			t.Fatal(err)
		}
		var got []Output
		st.AddListener(func(_ *Statement, outs []Output) { got = append(got, outs...) })
		for i := 0; i < 20; i++ {
			if err := e.SendEvent("t", map[string]Value{"k": float64(i % 4), "v": float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.SendEvent("s", map[string]Value{"k": 2.0, "v": 99.0}); err != nil {
			t.Fatal(err)
		}
		var hits []Output
		for _, o := range got {
			if o.Fields["av"] == 99.0 {
				hits = append(hits, o)
			}
		}
		return hits
	}
	indexed, looped := run(false), run(true)
	if len(indexed) == 0 || len(indexed) != len(looped) {
		t.Fatalf("indexed %d rows vs nested-loop %d rows", len(indexed), len(looped))
	}
	for i := range indexed {
		if indexed[i].Fields["bv"] != looped[i].Fields["bv"] {
			t.Fatalf("row %d differs", i)
		}
	}
}
