package cep

import (
	"fmt"
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

func send(t *testing.T, e *Engine, stream string, fields map[string]Value) {
	t.Helper()
	if err := e.SendEvent(stream, fields); err != nil {
		t.Fatalf("SendEvent(%s, %v): %v", stream, fields, err)
	}
}

func TestSimpleFilter(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT * FROM s.std:lastevent() AS ev WHERE ev.x > 10`)
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
	st, err := e.AddStatement("r", `SELECT ev.x AS x FROM s.std:lastevent() AS ev`)
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
	st, err := e.AddStatement("r", `SELECT avg(w.x) AS m FROM s.win:length(3) AS w`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	for _, x := range []float64{1, 2, 3, 10} {
		send(t, e, "s", map[string]Value{"x": x})
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
	st, err := e.AddStatement("r",
		`SELECT w.loc AS loc, avg(w.x) AS m FROM s.std:groupwin(loc).win:length(2) AS w GROUP BY w.loc`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"loc": "a", "x": 1.0})
	send(t, e, "s", map[string]Value{"loc": "b", "x": 100.0})
	send(t, e, "s", map[string]Value{"loc": "a", "x": 3.0})
	send(t, e, "s", map[string]Value{"loc": "a", "x": 5.0}) // evicts x=1 from group a
	last := (*got)[len(*got)-1:]
	_ = last
	// After the final event, groups are a:{3,5} b:{100}; the firing
	// reports both groups.
	var aAvg, bAvg Value
	for _, o := range (*got)[len(*got)-2:] {
		switch o.Fields["loc"] {
		case "a":
			aAvg = o.Fields["m"]
		case "b":
			bAvg = o.Fields["m"]
		}
	}
	if aAvg != 4.0 {
		t.Fatalf("group a avg = %v, want 4", aAvg)
	}
	if bAvg != 100.0 {
		t.Fatalf("group b avg = %v, want 100", bAvg)
	}
}

func TestHavingThreshold(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r",
		`SELECT avg(w.x) AS m FROM s.win:length(2) AS w HAVING avg(w.x) > 10`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"x": 5.0})
	send(t, e, "s", map[string]Value{"x": 9.0})  // avg 7, no fire
	send(t, e, "s", map[string]Value{"x": 20.0}) // avg 14.5, fire
	if len(*got) != 1 {
		t.Fatalf("outputs = %d, want 1", len(*got))
	}
	if m := (*got)[0].Fields["m"]; m != 14.5 {
		t.Fatalf("m = %v, want 14.5", m)
	}
}

func TestJoinTwoStreams(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `
		SELECT o.id AS id, p.price AS price
		FROM orders.std:lastevent() AS o, prices.win:keepall() AS p
		WHERE o.sym = p.sym`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "prices", map[string]Value{"sym": "A", "price": 10.0})
	send(t, e, "prices", map[string]Value{"sym": "B", "price": 20.0})
	send(t, e, "orders", map[string]Value{"id": "o1", "sym": "B"})
	// The price arrivals also trigger, but with no matching order yet.
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

func TestUnidirectionalSuppressesOtherTriggers(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `
		SELECT o.id AS id, p.price AS price
		FROM orders.std:lastevent() AS o UNIDIRECTIONAL, prices.win:keepall() AS p
		WHERE o.sym = p.sym`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "orders", map[string]Value{"id": "o1", "sym": "A"})
	send(t, e, "prices", map[string]Value{"sym": "A", "price": 10.0}) // must NOT trigger
	if len(*got) != 0 {
		t.Fatalf("outputs = %d, want 0 (price arrivals must not trigger)", len(*got))
	}
	send(t, e, "orders", map[string]Value{"id": "o2", "sym": "A"})
	if len(*got) != 1 || (*got)[0].Fields["id"] != "o2" {
		t.Fatalf("outputs = %v, want one firing for o2", *got)
	}
}

func TestListing1EndToEnd(t *testing.T) {
	// The paper's generic rule template, with thresholds fed as a stream
	// (the "Add the Thresholds in an Esper stream" strategy of §4.3.1).
	e := New()
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

	// Load thresholds: area X fires above 50 at hour 8 weekdays; area Y above 100.
	send(t, e, "thresholdLocation", map[string]Value{"location": "X", "hour": 8.0, "day": "weekday", "attribute": 50.0})
	send(t, e, "thresholdLocation", map[string]Value{"location": "Y", "hour": 8.0, "day": "weekday", "attribute": 100.0})

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
		FROM s.win:keepall() AS w`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	for _, x := range []float64{2, 4, 6} {
		send(t, e, "s", map[string]Value{"x": x})
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
	st, err := e.AddStatement("r", `SELECT count(*) AS all_rows, count(w.x) AS non_null FROM s.win:keepall() AS w`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"x": 1.0})
	send(t, e, "s", map[string]Value{"y": 2.0}) // x missing → nil
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
	st, err := e.AddStatement("r", `SELECT lookup(w.x) AS v FROM s.std:lastevent() AS w`)
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
		`SELECT abs(w.x) AS a, sqrt(w.y) AS q, floor(w.z) AS f, ceil(w.z) AS c FROM s.std:lastevent() AS w`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"x": -3.0, "y": 16.0, "z": 2.5})
	f := (*got)[0].Fields
	if f["a"] != 3.0 || f["q"] != 4.0 || f["f"] != 2.0 || f["c"] != 3.0 {
		t.Fatalf("fields = %v", f)
	}
}

func TestUnknownFunctionError(t *testing.T) {
	e := New()
	_, err := e.AddStatement("r", `SELECT nosuch(w.x) AS v FROM s.std:lastevent() AS w`)
	if err != nil {
		t.Fatal(err) // compile succeeds; resolution is at runtime
	}
	if err := e.SendEvent("s", map[string]Value{"x": 1.0}); err == nil {
		t.Fatal("expected runtime error for unknown function")
	}
}

func TestTypeErrorSurfacesButEngineSurvives(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT * FROM s.std:lastevent() AS w WHERE w.x > 5`)
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
	if _, err := e.AddStatement("r", `SELECT w.x / w.y AS q FROM s.std:lastevent() AS w`); err != nil {
		t.Fatal(err)
	}
	if err := e.SendEvent("s", map[string]Value{"x": 1.0, "y": 0.0}); err == nil ||
		!strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
}

func TestDuplicateStatementName(t *testing.T) {
	e := New()
	if _, err := e.AddStatement("r", `SELECT * FROM s.std:lastevent() AS w`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddStatement("r", `SELECT * FROM s.std:lastevent() AS w`); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestRemoveStatement(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT * FROM s.std:lastevent() AS w`)
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
		if _, err := e.AddStatement(n, `SELECT * FROM s.std:lastevent() AS w`); err != nil {
			t.Fatal(err)
		}
	}
	names := e.StatementNames()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestEngineCountersViaRegistry(t *testing.T) {
	e := New()
	if _, err := e.AddStatement("r", `SELECT * FROM s.std:lastevent() AS w`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		send(t, e, "s", map[string]Value{"x": float64(i)})
	}
	if got := engineEventsIn(e); got != 5 {
		t.Fatalf("events = %d, want 5", got)
	}
	if e.AvgLatency() <= 0 {
		t.Fatal("avg latency should be positive")
	}
	e.ResetMetrics()
	if engineEventsIn(e) != 0 || e.AvgLatency() != 0 {
		t.Fatal("reset did not clear metrics")
	}
}

func TestStatementMetrics(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT * FROM s.std:lastevent() AS w WHERE w.x > 0`)
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
	st, err := e.AddStatement("r", `
		SELECT * FROM s.win:length(2) AS a, t.win:keepall() AS b WHERE a.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		send(t, e, "s", map[string]Value{"k": float64(i)})
		send(t, e, "t", map[string]Value{"k": float64(i)})
	}
	sizes := st.WindowSizes()
	if sizes["a"] != 2 || sizes["b"] != 5 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestJoinIndexMatchesNestedLoopSemantics(t *testing.T) {
	// The equi-join index must produce exactly the rows a nested loop
	// with a WHERE filter would.
	build := func(src string) (*Engine, *[]Output) {
		e := New()
		st, err := e.AddStatement("r", src)
		if err != nil {
			t.Fatal(err)
		}
		return e, collect(st)
	}
	// Indexed: equality in WHERE. Unindexed variant uses an inequality
	// trick (k <= other AND k >= other) that the planner cannot index.
	eIdx, gotIdx := build(`SELECT a.v AS av, b.v AS bv FROM s.std:lastevent() AS a, t.win:keepall() AS b WHERE a.k = b.k`)
	eLoop, gotLoop := build(`SELECT a.v AS av, b.v AS bv FROM s.std:lastevent() AS a, t.win:keepall() AS b WHERE a.k <= b.k AND a.k >= b.k`)

	feed := func(e *Engine) {
		for i := 0; i < 10; i++ {
			send(t, e, "t", map[string]Value{"k": float64(i % 3), "v": float64(i)})
		}
		send(t, e, "s", map[string]Value{"k": 1.0, "v": 99.0})
	}
	feed(eIdx)
	feed(eLoop)

	sig := func(outs []Output) []string {
		var s []string
		for _, o := range outs {
			if o.Fields["av"] == 99.0 {
				s = append(s, fmt.Sprintf("%v", o.Fields["bv"]))
			}
		}
		return s
	}
	a, b := sig(*gotIdx), sig(*gotLoop)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("indexed rows %v vs nested-loop rows %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestThreeWayJoinChain(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `
		SELECT a.id AS id, c.val AS val
		FROM s1.std:lastevent() AS a, s2.win:keepall() AS b, s3.win:keepall() AS c
		WHERE a.k = b.k AND b.j = c.j`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s2", map[string]Value{"k": 1.0, "j": "x"})
	send(t, e, "s3", map[string]Value{"j": "x", "val": 7.0})
	send(t, e, "s3", map[string]Value{"j": "y", "val": 8.0})
	send(t, e, "s1", map[string]Value{"id": "a1", "k": 1.0})
	var hits []Output
	for _, o := range *got {
		if o.Fields["id"] == "a1" {
			hits = append(hits, o)
		}
	}
	if len(hits) != 1 || hits[0].Fields["val"] != 7.0 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSelectStarJoinPrefixesAliases(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT * FROM s.std:lastevent() AS a, t.win:keepall() AS b WHERE a.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "t", map[string]Value{"k": 1.0, "p": 5.0})
	send(t, e, "s", map[string]Value{"k": 1.0, "q": 6.0})
	f := (*got)[len(*got)-1].Fields
	if f["a.q"] != 6.0 || f["b.p"] != 5.0 {
		t.Fatalf("star fields = %v", f)
	}
}

func TestEmptyWindowJoinNoOutput(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT * FROM s.std:lastevent() AS a, t.win:keepall() AS b WHERE a.k = b.k`)
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
	st, err := e.AddStatement("r", `SELECT count(*) AS n FROM s.win:keepall() AS w`)
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
				_ = e.SendEvent("s", map[string]Value{"x": float64(i)})
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
