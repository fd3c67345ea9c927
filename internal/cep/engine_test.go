package cep

import (
	"strings"
	"testing"

	"trafficcep/internal/epl"
	"trafficcep/internal/telemetry"
)

// engineEventsIn reads the engine's cumulative event counter through a
// registry walk.
func engineEventsIn(e *Engine) uint64 {
	reg := telemetry.NewRegistry()
	e.Collect(reg)
	return reg.Counter("cep.events_in").Load()
}

// collect attaches a listener that appends outputs to a slice.
func collect(st *Statement) *[]Output {
	var got []Output
	st.AddListener(func(_ *Statement, outs []Output) {
		got = append(got, outs...)
	})
	return &got
}

// lastX is the smallest statement the trigger plan runs: the latest event
// of s alone.
const lastX = `SELECT w.x AS x, count(*) AS n FROM s.std:lastevent() AS w`

// register registers a table of rows over cols, the first keys of them
// its key columns, as name.
func register(t *testing.T, e *Engine, name string, cols []string, keys int, rows ...map[string]Value) {
	t.Helper()
	tab, err := NewTable(cols, keys, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable(name, tab); err != nil {
		t.Fatal(err)
	}
}

func send(t *testing.T, e *Engine, stream string, fields map[string]Value) {
	t.Helper()
	if err := e.SendEvent(stream, fields); err != nil {
		t.Fatalf("SendEvent(%s, %v): %v", stream, fields, err)
	}
}

func TestSimpleFilter(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT ev.x AS x, count(*) AS n FROM s.std:lastevent() AS ev WHERE ev.x > 10`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"x": 5.0})
	send(t, e, "s", map[string]Value{"x": 15.0})
	send(t, e, "s", map[string]Value{"x": 10.0})
	if len(*got) != 1 {
		t.Fatalf("outputs = %d, want 1", len(*got))
	}
	if v := (*got)[0].Fields["x"]; v != 15.0 {
		t.Fatalf("x = %v, want 15", v)
	}
}

func TestLastEventOnlyLatest(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT ev.x AS x, count(*) AS n FROM s.std:lastevent() AS ev`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	for i := 1; i <= 3; i++ {
		send(t, e, "s", map[string]Value{"x": float64(i)})
	}
	// Each arrival fires once with just the newest event.
	if len(*got) != 3 {
		t.Fatalf("outputs = %d, want 3", len(*got))
	}
	if (*got)[2].Fields["x"] != 3.0 {
		t.Fatalf("last = %v", (*got)[2].Fields["x"])
	}
}

func TestLengthWindowAvg(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT avg(w.x) AS m FROM s.std:lastevent() AS e, s.std:groupwin(k).win:length(3) AS w WHERE e.k = w.k`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	for _, x := range []float64{1, 2, 3, 10} {
		send(t, e, "s", map[string]Value{"k": "a", "x": x})
	}
	want := []float64{1, 1.5, 2, 5} // window slides: {1},{1,2},{1,2,3},{2,3,10}
	if len(*got) != len(want) {
		t.Fatalf("outputs = %d, want %d", len(*got), len(want))
	}
	for i, w := range want {
		if m := (*got)[i].Fields["m"]; m != w {
			t.Fatalf("firing %d: avg = %v, want %v", i, m, w)
		}
	}
}

func TestGroupWinIsolatesGroups(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT w.loc AS loc, avg(w.x) AS m
		FROM s.std:lastevent() AS e, s.std:groupwin(loc).win:length(2) AS w WHERE e.loc = w.loc GROUP BY w.loc`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"loc": "a", "x": 1.0})
	send(t, e, "s", map[string]Value{"loc": "b", "x": 100.0})
	send(t, e, "s", map[string]Value{"loc": "a", "x": 3.0})
	send(t, e, "s", map[string]Value{"loc": "a", "x": 5.0}) // evicts x=1 from group a
	// Each firing reports the arriving event's group: b:{100} alone, and
	// at the end a:{3,5}.
	if len(*got) != 4 {
		t.Fatalf("outputs = %d, want one per arrival", len(*got))
	}
	if o := (*got)[1].Fields; o["loc"] != "b" || o["m"] != 100.0 {
		t.Fatalf("group b = %v, want avg 100", o)
	}
	if o := (*got)[3].Fields; o["loc"] != "a" || o["m"] != 4.0 {
		t.Fatalf("group a = %v, want avg 4", o)
	}
}

func TestHavingThreshold(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r",
		`SELECT avg(w.x) AS m FROM s.std:lastevent() AS e, s.std:groupwin(k).win:length(2) AS w WHERE e.k = w.k HAVING avg(w.x) > 10`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"k": "a", "x": 5.0})
	send(t, e, "s", map[string]Value{"k": "a", "x": 9.0})  // avg 7, no fire
	send(t, e, "s", map[string]Value{"k": "a", "x": 20.0}) // avg 14.5, fire
	if len(*got) != 1 {
		t.Fatalf("outputs = %d, want 1", len(*got))
	}
	if m := (*got)[0].Fields["m"]; m != 14.5 {
		t.Fatalf("m = %v, want 14.5", m)
	}
}

// TestJoinTwoStreams joins a stream with its reference data, a registered
// table of prices.
func TestJoinTwoStreams(t *testing.T) {
	e := New()
	register(t, e, "prices", []string{"sym", "price"}, 1,
		map[string]Value{"sym": "A", "price": 10.0}, map[string]Value{"sym": "B", "price": 20.0})
	st, err := e.AddStatement("r", `
		SELECT o.id AS id, max(p.price) AS price
		FROM orders.std:lastevent() AS o, prices.win:keepall() AS p
		WHERE o.sym = p.sym`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "orders", map[string]Value{"id": "o1", "sym": "B"})
	var fired []Output
	for _, o := range *got {
		if o.Fields["id"] == "o1" {
			fired = append(fired, o)
		}
	}
	if len(fired) != 1 {
		t.Fatalf("join outputs for o1 = %d, want 1", len(fired))
	}
	if fired[0].Fields["price"] != 20.0 {
		t.Fatalf("price = %v, want 20", fired[0].Fields["price"])
	}
}

// TestUnidirectionalSuppressesOtherTriggers: only the trigger's stream
// triggers; a new version of the table it joins does not.
func TestUnidirectionalSuppressesOtherTriggers(t *testing.T) {
	e := New()
	cols := []string{"sym", "price"}
	register(t, e, "prices", cols, 1)
	st, err := e.AddStatement("r", `
		SELECT o.id AS id, max(p.price) AS price
		FROM orders.std:lastevent() AS o UNIDIRECTIONAL, prices.win:keepall() AS p
		WHERE o.sym = p.sym`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "orders", map[string]Value{"id": "o1", "sym": "A"})
	register(t, e, "prices", cols, 1, map[string]Value{"sym": "A", "price": 10.0}) // must NOT trigger
	if len(*got) != 0 {
		t.Fatalf("outputs = %d, want 0 (price arrivals must not trigger)", len(*got))
	}
	send(t, e, "orders", map[string]Value{"id": "o2", "sym": "A"})
	if len(*got) != 1 || (*got)[0].Fields["id"] != "o2" {
		t.Fatalf("outputs = %v, want one firing for o2", *got)
	}
}

func TestListing1EndToEnd(t *testing.T) {
	// The paper's generic rule template, with its thresholds in a table
	// (the "Add the Thresholds in an Esper stream" strategy of §4.3.1).
	// Area X fires above 50 at hour 8 weekdays; area Y above 100.
	e := New()
	register(t, e, "thresholdLocation", []string{"location", "hour", "day", "attribute"}, 3,
		map[string]Value{"location": "X", "hour": 8.0, "day": "weekday", "attribute": 50.0},
		map[string]Value{"location": "Y", "hour": 8.0, "day": "weekday", "attribute": 100.0})
	st, err := e.AddStatement("listing1", `
		SELECT bd2.location AS location, avg(bd2.attribute) AS observed, avg(thresholds.attribute) AS threshold
		FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
		     bus.std:groupwin(location).win:length(3) AS bd2,
		     thresholdLocation.win:keepall() AS thresholds
		WHERE bd.hour = thresholds.hour AND bd.day = thresholds.day
		  AND bd.location = thresholds.location AND bd.location = bd2.location
		GROUP BY bd2.location
		HAVING avg(bd2.attribute) > avg(thresholds.attribute)`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)

	bus := func(loc string, attr float64) {
		send(t, e, "bus", map[string]Value{"location": loc, "hour": 8.0, "day": "weekday", "attribute": attr})
	}
	bus("X", 40)
	bus("X", 45)
	if len(*got) != 0 {
		t.Fatalf("premature firing: %v", *got)
	}
	bus("X", 90) // window {40,45,90}: avg 58.3 > 50 → fire
	if len(*got) != 1 {
		t.Fatalf("outputs = %d, want 1", len(*got))
	}
	o := (*got)[0]
	if o.Fields["location"] != "X" || o.Fields["threshold"] != 50.0 {
		t.Fatalf("bad firing: %v", o.Fields)
	}
	obs, _ := numeric(o.Fields["observed"])
	if obs < 58 || obs > 59 {
		t.Fatalf("observed = %v, want ~58.3", obs)
	}

	// Area Y below its own threshold must not fire even though it would
	// exceed X's.
	bus("Y", 60)
	bus("Y", 70)
	bus("Y", 80)
	if len(*got) != 1 {
		t.Fatalf("Y should not fire below its 100 threshold; outputs = %d", len(*got))
	}

	// A bus event at a different hour matches no threshold row → no fire.
	send(t, e, "bus", map[string]Value{"location": "X", "hour": 9.0, "day": "weekday", "attribute": 999.0})
	if len(*got) != 1 {
		t.Fatalf("hour 9 must not match; outputs = %d", len(*got))
	}
}

func TestAggregatesAll(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `
		SELECT sum(w.x) AS s, min(w.x) AS lo, max(w.x) AS hi, count(w.x) AS n, stddev(w.x) AS sd
		FROM s.std:lastevent() AS e, s.std:groupwin(k).win:length(1000) AS w WHERE e.k = w.k`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	for _, x := range []float64{2, 4, 6} {
		send(t, e, "s", map[string]Value{"k": "a", "x": x})
	}
	f := (*got)[len(*got)-1].Fields
	if f["s"] != 12.0 || f["lo"] != 2.0 || f["hi"] != 6.0 || f["n"] != 3.0 {
		t.Fatalf("aggregates = %v", f)
	}
	sd, _ := numeric(f["sd"])
	if sd < 1.99 || sd > 2.01 { // sample stddev of {2,4,6} = 2
		t.Fatalf("stddev = %v, want 2", sd)
	}
}

func TestCountStarVsCountField(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT count(*) AS all_rows, count(w.x) AS non_null
		FROM s.std:lastevent() AS e, s.std:groupwin(k).win:length(1000) AS w WHERE e.k = w.k`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"k": "a", "x": 1.0})
	send(t, e, "s", map[string]Value{"k": "a", "y": 2.0}) // x missing → nil
	f := (*got)[len(*got)-1].Fields
	if f["all_rows"] != 2.0 || f["non_null"] != 1.0 {
		t.Fatalf("counts = %v", f)
	}
}

// TestDistinctRejected: DISTINCT parses, for sqlstore's threshold query,
// but no rule uses it, so every way into the engine refuses it rather than
// ignore it, and leaves nothing registered.
func TestDistinctRejected(t *testing.T) {
	const src = `SELECT DISTINCT w.x AS x FROM s.win:keepall() AS w`
	e := New()
	_, errStmt := e.AddStatement("r", src)
	_, errQuery := e.AddQuery("q", epl.MustParse(src))
	_, errOwned := e.AddOwnedStatement("o", src, "s", "k")
	for _, err := range []error{errStmt, errQuery, errOwned} {
		if err == nil || !strings.Contains(err.Error(), "DISTINCT") {
			t.Errorf("err = %v, want an error naming DISTINCT", err)
		}
	}
	if n := e.StatementCount(); n != 0 {
		t.Fatalf("%d statements registered after rejections", n)
	}
}

func TestScalarFunctionRegistry(t *testing.T) {
	e := New()
	calls := 0
	e.RegisterFunction("lookup", func(args []Value) (Value, error) {
		calls++
		n, _ := numeric(args[0])
		return n * 10, nil
	})
	st, err := e.AddStatement("r", `SELECT lookup(w.x) AS v, count(*) AS n FROM s.std:lastevent() AS w`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"x": 4.0})
	if (*got)[0].Fields["v"] != 40.0 {
		t.Fatalf("v = %v, want 40", (*got)[0].Fields["v"])
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestBuiltinFunctions(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r",
		`SELECT abs(w.x) AS a, sqrt(w.y) AS q, floor(w.z) AS f, ceil(w.z) AS c, count(*) AS n FROM s.std:lastevent() AS w`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"x": -3.0, "y": 16.0, "z": 2.5})
	f := (*got)[0].Fields
	if f["a"] != 3.0 || f["q"] != 4.0 || f["f"] != 2.0 || f["c"] != 3.0 || f["n"] != 1.0 {
		t.Fatalf("fields = %v", f)
	}
}

func TestUnknownFunctionError(t *testing.T) {
	e := New()
	_, err := e.AddStatement("r", `SELECT nosuch(w.x) AS v, count(*) AS n FROM s.std:lastevent() AS w`)
	if err != nil {
		t.Fatal(err) // compile succeeds; resolution is at runtime
	}
	if err := e.SendEvent("s", map[string]Value{"x": 1.0}); err == nil {
		t.Fatal("expected runtime error for unknown function")
	}
}

func TestTypeErrorSurfacesButEngineSurvives(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT w.x AS x, count(*) AS n FROM s.std:lastevent() AS w WHERE w.x > 5`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	if err := e.SendEvent("s", map[string]Value{"x": "not-a-number"}); err == nil {
		t.Fatal("expected comparison error")
	}
	// The engine keeps working afterwards.
	send(t, e, "s", map[string]Value{"x": 10.0})
	if len(*got) != 1 {
		t.Fatalf("outputs after error = %d, want 1", len(*got))
	}
	if st.Metrics().Errors != 1 {
		t.Fatalf("error count = %d, want 1", st.Metrics().Errors)
	}
}

func TestDivisionByZero(t *testing.T) {
	e := New()
	if _, err := e.AddStatement("r", `SELECT w.x / w.y AS q, count(*) AS n FROM s.std:lastevent() AS w`); err != nil {
		t.Fatal(err)
	}
	if err := e.SendEvent("s", map[string]Value{"x": 1.0, "y": 0.0}); err == nil ||
		!strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
}

func TestDuplicateStatementName(t *testing.T) {
	e := New()
	if _, err := e.AddStatement("r", lastX); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStatement("r", lastX); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestRemoveStatement(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", lastX)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"x": 1.0})
	if !e.RemoveStatement("r") {
		t.Fatal("remove failed")
	}
	if e.RemoveStatement("r") {
		t.Fatal("second remove should report false")
	}
	send(t, e, "s", map[string]Value{"x": 2.0})
	if len(*got) != 1 {
		t.Fatalf("outputs = %d, want 1 (no delivery after removal)", len(*got))
	}
	if e.StatementCount() != 0 {
		t.Fatalf("count = %d", e.StatementCount())
	}
}

func TestStatementNamesSorted(t *testing.T) {
	e := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := e.AddStatement(n, lastX); err != nil {
			t.Fatal(err)
		}
	}
	names := e.StatementNames()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

// TestEngineCountersViaRegistry: an engine counts its events, and times them
// — the latency histogram, proc_time_ns and avg_latency_ns — only with a
// registry attached.
func TestEngineCountersViaRegistry(t *testing.T) {
	for _, timed := range []bool{false, true} {
		var e *Engine
		if timed {
			e = New(WithRegistry(telemetry.NewRegistry()))
		} else {
			e = New()
		}
		if _, err := e.AddStatement("r", lastX); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			send(t, e, "s", map[string]Value{"x": float64(i)})
		}
		reg := telemetry.NewRegistry()
		e.Collect(reg)
		if got := reg.Counter("cep.events_in").Load(); got != 5 {
			t.Fatalf("timed %v: events = %d, want 5", timed, got)
		}
		var hasProc, hasAvg bool
		for _, m := range reg.Snapshot().Metrics {
			hasProc = hasProc || m.Name == "cep.proc_time_ns"
			hasAvg = hasAvg || m.Name == "cep.avg_latency_ns"
		}
		if hasProc != timed || hasAvg != timed {
			t.Fatalf("timed %v: proc_time_ns published %v, avg_latency_ns %v", timed, hasProc, hasAvg)
		}
		if timed && (reg.Gauge("cep.proc_time_ns").Load() <= 0 || reg.Gauge("cep.avg_latency_ns").Load() <= 0) {
			t.Fatal("processing time should be positive")
		}
	}
}

func TestStatementMetrics(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT w.x AS x, count(*) AS n FROM s.std:lastevent() AS w WHERE w.x > 0`)
	if err != nil {
		t.Fatal(err)
	}
	send(t, e, "s", map[string]Value{"x": 1.0})
	send(t, e, "s", map[string]Value{"x": -1.0})
	m := st.Metrics()
	if m.EventsIn != 2 || m.Evaluations != 2 || m.Firings != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestWindowSizes(t *testing.T) {
	e := New()
	register(t, e, "t", []string{"k"}, 1, map[string]Value{"k": 0.0}, map[string]Value{"k": 1.0},
		map[string]Value{"k": 2.0}, map[string]Value{"k": 3.0}, map[string]Value{"k": 4.0})
	st, err := e.AddStatement("r", `
		SELECT count(*) AS n FROM s.std:lastevent() AS e, s.std:groupwin(g).win:length(2) AS a, t.win:keepall() AS b
		WHERE e.g = a.g AND e.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		send(t, e, "s", map[string]Value{"g": "x", "k": float64(i)})
	}
	sizes := st.WindowSizes()
	if sizes["a"] != 2 || sizes["b"] != 5 {
		t.Fatalf("sizes = %v", sizes)
	}
}

// TestThreeWayJoinChain: a three-way join registers when every equi-join
// reads the trigger — a.k = b.k AND a.j = c.j — and fires on the rows all
// three items match; the chain a.k = b.k AND b.j = c.j, whose second join
// the trigger does not take part in, is refused.
func TestThreeWayJoinChain(t *testing.T) {
	e := New()
	register(t, e, "s2", []string{"k", "j"}, 1, map[string]Value{"k": 1.0, "j": "x"})
	register(t, e, "s3", []string{"j", "val"}, 1, map[string]Value{"j": "x", "val": 7.0}, map[string]Value{"j": "y", "val": 8.0})
	if _, err := e.AddStatement("chain", `
		SELECT a.id AS id, max(c.val) AS val
		FROM s1.std:lastevent() AS a, s2.win:keepall() AS b, s3.win:keepall() AS c
		WHERE a.k = b.k AND b.j = c.j`); err == nil || !strings.Contains(err.Error(), "equi-join (b.j = c.j) does not read the trigger") {
		t.Fatalf("chain registered: err = %v", err)
	}
	st, err := e.AddStatement("r", `
		SELECT a.id AS id, max(c.val) AS val, count(*) AS n
		FROM s1.std:lastevent() AS a, s2.win:keepall() AS b, s3.win:keepall() AS c
		WHERE a.k = b.k AND a.j = c.j`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s1", map[string]Value{"id": "a1", "k": 1.0, "j": "x"})
	var hits []Output
	for _, o := range *got {
		if o.Fields["id"] == "a1" {
			hits = append(hits, o)
		}
	}
	if len(hits) != 1 || hits[0].Fields["val"] != 7.0 || hits[0].Fields["n"] != 1.0 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEmptyWindowJoinNoOutput(t *testing.T) {
	e := New()
	register(t, e, "t", []string{"k"}, 1)
	st, err := e.AddStatement("r", `SELECT a.k AS k, count(*) AS n FROM s.std:lastevent() AS a, t.win:keepall() AS b WHERE a.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"k": 1.0})
	if len(*got) != 0 {
		t.Fatal("join with empty window must not fire")
	}
}

func TestConcurrentSendSafety(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT count(*) AS n FROM s.std:lastevent() AS e, s.std:groupwin(k).win:length(1000) AS w WHERE e.k = w.k`)
	if err != nil {
		t.Fatal(err)
	}
	var maxN float64
	st.AddListener(func(_ *Statement, outs []Output) {
		for _, o := range outs {
			if n, _ := numeric(o.Fields["n"]); n > maxN {
				maxN = n
			}
		}
	})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				_ = e.SendEvent("s", map[string]Value{"k": "a", "x": float64(i)})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if maxN != 400 {
		t.Fatalf("final count = %v, want 400", maxN)
	}
}
