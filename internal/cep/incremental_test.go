package cep

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"trafficcep/internal/epl"
	"trafficcep/internal/telemetry"
)

func TestIncrementalStrategySelection(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			"listing1_trigger",
			`SELECT bd2.loc, avg(bd2.attr) AS a FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
			 bus.std:groupwin(loc).win:length(10) AS bd2, th.win:keepall() AS th
			 WHERE bd.hour = th.hour AND bd.loc = th.location AND bd.loc = bd2.loc
			 GROUP BY bd2.loc HAVING avg(bd2.attr) > avg(th.value)`,
			"trigger",
		},
		{
			// Single-window aggregates have no trigger item: recompute.
			"single_window_delta",
			`SELECT avg(w.x) AS a FROM s.win:length(5) AS w`,
			"",
		},
		{
			"grouped_delta",
			`SELECT w.loc AS l, sum(w.x) AS s FROM s.win:length(5) AS w GROUP BY w.loc`,
			"",
		},
		{
			// A join with no std:lastevent item has no trigger: recompute.
			"join_without_trigger_ineligible",
			`SELECT a.loc AS l, sum(b.x) AS s FROM s.win:length(5) AS a, t.win:keepall() AS b
			 WHERE a.loc = b.loc GROUP BY a.loc`,
			"",
		},
		{
			"per_row_ineligible",
			`SELECT w.x AS x FROM s.win:length(5) AS w`,
			"",
		},
		{
			"select_star_ineligible",
			`SELECT * FROM s.win:length(5) AS w GROUP BY w.loc`,
			"",
		},
		{
			// A non-grouped field reference cannot be answered from
			// maintained group state.
			"unstable_ref_ineligible",
			`SELECT w.other AS o, sum(w.x) AS s FROM s.win:length(5) AS w GROUP BY w.loc`,
			"",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := New()
			st, err := eng.AddStatement("r", c.src)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.IncrementalStrategy(); got != c.want {
				t.Fatalf("strategy = %q, want %q", got, c.want)
			}
		})
	}
}

// triggerAvg is a trigger-planned statement: the latest event's location
// joined with a length window on the same stream.
const triggerAvg = `SELECT bd.loc AS l, avg(w.x) AS a
	FROM s.std:lastevent() AS bd, s.win:length(5) AS w
	WHERE bd.loc = w.loc GROUP BY bd.loc`

func TestIncrementalAndFallbackCounters(t *testing.T) {
	eng := New()
	fast, err := eng.AddStatement("fast", triggerAvg)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := eng.AddStatement("slow", `SELECT * FROM s.win:length(5) AS w GROUP BY w.loc`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		send(t, eng, "s", map[string]Value{"x": float64(i), "loc": "a"})
	}
	if m := fast.Metrics(); m.IncrementalEvals != 3 || m.RecomputeFallbacks != 0 {
		t.Fatalf("fast metrics = %+v", m)
	}
	if m := slow.Metrics(); m.IncrementalEvals != 0 || m.RecomputeFallbacks != 3 {
		t.Fatalf("slow metrics = %+v", m)
	}
}

func TestIncrementalMinMaxEviction(t *testing.T) {
	// min/max must follow evictions out of a sliding window: after the 9
	// leaves a group's length-3 window, max falls back to the remaining
	// values. The window is key-aligned, so evictions retract through the
	// group's value ring.
	eng := New()
	st, err := eng.AddStatement("r", `SELECT bd2.loc AS loc, min(bd2.x) AS lo, max(bd2.x) AS hi
		FROM s.std:lastevent() AS bd, s.std:groupwin(loc).win:length(3) AS bd2
		WHERE bd.loc = bd2.loc GROUP BY bd2.loc`)
	if err != nil {
		t.Fatal(err)
	}
	if st.IncrementalStrategy() != "trigger" || st.inc.items[1].gw == nil {
		t.Fatalf("strategy = %q, want trigger with a key-aligned bd2", st.IncrementalStrategy())
	}
	var last Output
	st.AddListener(func(_ *Statement, outs []Output) {
		last = outs[len(outs)-1]
	})
	for _, x := range []float64{5, 9, 1, 2, 2} {
		send(t, eng, "s", map[string]Value{"x": x, "loc": "a"})
	}
	// Window now holds {1, 2, 2}.
	if last.Fields["lo"] != 1.0 || last.Fields["hi"] != 2.0 {
		t.Fatalf("min/max after eviction = %v / %v", last.Fields["lo"], last.Fields["hi"])
	}
}

func TestIncrementalMaintenanceErrorFallsBack(t *testing.T) {
	// A maintenance-time type error must not be double-counted, must
	// permanently disable the incremental plan, and must leave the
	// statement fully functional via recompute — through the join index on
	// w.loc, which the armed plan left idle and the break must rebuild.
	eng := New()
	st, err := eng.AddStatement("r", `SELECT bd.loc AS l, sum(w.x) AS s
		FROM s.std:lastevent() AS bd, s.win:length(3) AS w
		WHERE bd.loc = w.loc AND w.x > 0 GROUP BY bd.loc`)
	if err != nil {
		t.Fatal(err)
	}
	if st.IncrementalStrategy() != "trigger" || st.items[1].index == nil {
		t.Fatalf("strategy = %q, want trigger with w indexed", st.IncrementalStrategy())
	}
	send(t, eng, "s", map[string]Value{"x": 2.0, "loc": "a"})
	// Non-numeric x: w's filter fails during maintenance AND during the
	// recompute that the same arrival triggers.
	if err := eng.SendEvent("s", map[string]Value{"x": "bogus", "loc": "a"}); err == nil {
		t.Fatal("expected a comparison error")
	}
	if got := st.IncrementalStrategy(); got != "broken" {
		t.Fatalf("strategy after maintenance error = %q", got)
	}
	if m := st.Metrics(); m.Errors != 1 {
		t.Fatalf("errors = %d, want 1 (no double count)", m.Errors)
	}
	// The statement keeps answering by recompute. The bogus event still
	// occupies the window and keeps erroring until it slides out.
	var last Output
	st.AddListener(func(_ *Statement, outs []Output) { last = outs[len(outs)-1] })
	eng.SendEvent("s", map[string]Value{"x": 3.0, "loc": "a"})
	eng.SendEvent("s", map[string]Value{"x": 4.0, "loc": "a"})
	if err := eng.SendEvent("s", map[string]Value{"x": 5.0, "loc": "a"}); err != nil {
		t.Fatalf("after eviction: %v", err)
	}
	if last.Fields["s"] != 12.0 {
		t.Fatalf("sum after recovery = %v, want 12", last.Fields["s"])
	}
	m := st.Metrics()
	if m.RecomputeFallbacks == 0 {
		t.Fatal("broken statement did not count recompute fallbacks")
	}
}

func TestIndexConjunctUnknownAliasRejected(t *testing.T) {
	// Regression: an equi conjunct naming an alias that does not exist
	// must fail compilation, not silently index against FROM item 0. The
	// parser catches this for parsed sources, so drive AddQuery with a
	// hand-built AST, the way programmatic clients can.
	q := &epl.Query{
		Select: []epl.SelectItem{{Expr: &epl.FieldRef{Alias: "l", Field: "a"}, Alias: "a"}},
		From: []epl.FromItem{
			{Stream: "s0", Alias: "l", Views: []epl.ViewSpec{{Namespace: "win", Name: "length", Args: []epl.Expr{&epl.NumberLit{Value: 2}}}}},
			{Stream: "s1", Alias: "r", Views: []epl.ViewSpec{{Namespace: "win", Name: "length", Args: []epl.Expr{&epl.NumberLit{Value: 2}}}}},
		},
		Where: &epl.BinaryExpr{
			Op:    "=",
			Left:  &epl.FieldRef{Alias: "zz", Field: "loc"},
			Right: &epl.FieldRef{Alias: "r", Field: "loc"},
		},
	}
	eng := New()
	_, err := eng.AddQuery("r", q)
	if err == nil {
		t.Fatal("unknown alias in equi conjunct must be a compile error")
	}
	if !strings.Contains(err.Error(), "unknown alias") {
		t.Fatalf("error = %v, want unknown-alias", err)
	}
}

// TestWindowDeltaContract checks every view type against the delta contract
// incremental maintenance depends on: after insert(ev) returns evicted, old
// contents − evicted + ev must equal the new contents as a multiset, so an
// evicted event is one the window held. The windows are reached the way
// statements reach them — through an engine view two FROM items subscribed
// to — so it also holds the once-per-turn insert: the second subscriber's
// insert of the turn's event must hand back the first one's eviction and
// leave the window alone.
func TestWindowDeltaContract(t *testing.T) {
	specs := []string{
		"std:lastevent()",
		"win:keepall()",
		"win:length(3)",
		"std:groupwin(k).win:length(2)",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			q, err := epl.Parse("SELECT * FROM s." + spec + " AS e")
			if err != nil {
				t.Fatal(err)
			}
			eng := New()
			first, err := eng.acquireView(&Statement{}, q.From[0], viewSchema)
			if err != nil {
				t.Fatal(err)
			}
			second, err := eng.acquireView(&Statement{}, q.From[0], viewSchema)
			if err != nil || second != first {
				t.Fatalf("a second statement's item did not join the unfed view (err %v)", err)
			}
			rng := rand.New(rand.NewSource(7))
			replay := map[*Event]int{}
			for i := 0; i < 200; i++ {
				ev := mkEvent(i, map[string]Value{"k": float64(rng.Intn(4)), "v": float64(i)})
				evicted := first.insert(ev)
				if again := second.insert(ev); again != evicted {
					t.Fatalf("step %d: the turn's second insert returned another eviction", i)
				}
				if evicted != nil {
					replay[evicted]--
					if replay[evicted] == 0 {
						delete(replay, evicted)
					}
				}
				replay[ev]++
				live := map[*Event]int{}
				for _, e := range first.win.contents() {
					live[e]++
				}
				if len(live) != len(replay) {
					t.Fatalf("step %d: replay has %d events, contents %d", i, len(replay), len(live))
				}
				for e, n := range live {
					if replay[e] != n {
						t.Fatalf("step %d: event %v count %d vs replayed %d", i, e.Fields, n, replay[e])
					}
				}
			}
			if late, _ := eng.acquireView(&Statement{}, q.From[0], viewSchema); late == first {
				t.Fatal("an item joined a view that has received events")
			}
		})
	}
}

func TestIncrementalCollectPublishesCounters(t *testing.T) {
	eng := New()
	if _, err := eng.AddStatement("r", triggerAvg); err != nil {
		t.Fatal(err)
	}
	send(t, eng, "s", map[string]Value{"x": 1.0, "loc": "a"})
	reg := telemetry.NewRegistry()
	eng.Collect(reg)
	snap := reg.Gather()
	m, ok := snap.Get("cep.stmt.r.incremental_evals")
	if !ok || m.Value != 1 {
		t.Fatalf("incremental_evals metric = %+v (ok=%v)", m, ok)
	}
	if _, ok := snap.Get("cep.stmt.r.recompute_fallbacks"); !ok {
		t.Fatal("recompute_fallbacks metric missing")
	}
}

// TestListing1IncrementalMatchesRecompute drives the paper's Listing 1 rule
// shape with a low threshold (so HAVING fires) through both evaluation
// modes and compares every emitted batch.
func TestListing1IncrementalMatchesRecompute(t *testing.T) {
	src := `SELECT bd2.loc AS loc, avg(bd2.attr) AS cur, avg(th.value) AS thr
		FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
		     bus.std:groupwin(loc).win:length(4) AS bd2,
		     thr.win:keepall() AS th
		WHERE bd.hour = th.hour AND bd.day = th.day AND bd.loc = th.location AND bd.loc = bd2.loc
		GROUP BY bd2.loc
		HAVING avg(bd2.attr) > avg(th.value)`

	type mode struct {
		eng  *Engine
		outs []string
	}
	build := func(recompute bool) *mode {
		m := &mode{eng: New()}
		st, err := m.eng.AddStatement("r", src)
		if err != nil {
			t.Fatal(err)
		}
		if recompute {
			forceRecompute(st)
		}
		st.AddListener(func(_ *Statement, outs []Output) {
			for _, o := range outs {
				m.outs = append(m.outs, canonFields(o.Fields))
			}
		})
		return m
	}
	inc := build(false)
	rec := build(true)

	rng := rand.New(rand.NewSource(11))
	feed := func(m *mode, stream string, f map[string]Value) {
		if err := m.eng.SendEvent(stream, f); err != nil {
			t.Fatal(err)
		}
	}
	for loc := 0; loc < 3; loc++ {
		for h := 0; h < 3; h++ {
			f := map[string]Value{
				"location": fmt.Sprintf("L%d", loc), "hour": float64(h),
				"day": "wd", "value": float64(rng.Intn(6)),
			}
			feed(inc, "thr", f)
			feed(rec, "thr", f)
		}
	}
	for i := 0; i < 400; i++ {
		f := map[string]Value{
			"loc":  fmt.Sprintf("L%d", rng.Intn(3)),
			"hour": float64(rng.Intn(3)),
			"day":  "wd",
			"attr": float64(rng.Intn(10)),
		}
		feed(inc, "bus", f)
		feed(rec, "bus", f)
	}
	if len(inc.outs) != len(rec.outs) {
		t.Fatalf("incremental emitted %d outputs, recompute %d", len(inc.outs), len(rec.outs))
	}
	for i := range inc.outs {
		if inc.outs[i] != rec.outs[i] {
			t.Fatalf("output %d differs:\n inc: %s\n rec: %s", i, inc.outs[i], rec.outs[i])
		}
	}
	if len(inc.outs) == 0 {
		t.Fatal("scenario produced no firings; threshold too high to exercise HAVING")
	}
}

func TestProcTimeSampledOnlyWithRegistry(t *testing.T) {
	// Statement wall-clock sampling costs two time.Now calls per event;
	// it must be off unless a telemetry registry consumes it.
	plain := New()
	st, err := plain.AddStatement("r", `SELECT avg(w.x) AS a FROM s.win:length(5) AS w`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		send(t, plain, "s", map[string]Value{"x": float64(i)})
	}
	if pt := st.Metrics().ProcTime; pt != 0 {
		t.Fatalf("ProcTime sampled without a registry: %v", pt)
	}

	wired := New(WithRegistry(telemetry.NewRegistry()))
	st2, err := wired.AddStatement("r", `SELECT avg(w.x) AS a FROM s.win:length(5) AS w`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		send(t, wired, "s", map[string]Value{"x": float64(i)})
	}
	if pt := st2.Metrics().ProcTime; pt <= 0 {
		t.Fatalf("ProcTime not sampled with a registry: %v", pt)
	}
}
