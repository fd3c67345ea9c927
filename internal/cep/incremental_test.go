package cep

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"trafficcep/internal/epl"
	"trafficcep/internal/telemetry"
)

// TestIncrementalStrategySelection pins the registration rule: a statement
// registers only when the trigger plan can run it, and every way into the
// engine refuses one it cannot with the reason, leaving nothing registered.
func TestIncrementalStrategySelection(t *testing.T) {
	cases := []struct {
		name, src, want string // want "" registers
	}{
		{
			"listing1_trigger",
			`SELECT bd2.loc, avg(bd2.attr) AS a FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
			 bus.std:groupwin(loc).win:length(10) AS bd2, th.win:keepall() AS th
			 WHERE bd.hour = th.hour AND bd.loc = th.location AND bd.loc = bd2.loc
			 GROUP BY bd2.loc HAVING avg(bd2.attr) > avg(th.value)`,
			"",
		},
		{
			// Single-window aggregates have no trigger item.
			"single_window_delta",
			`SELECT avg(w.x) AS a FROM s.win:length(5) AS w`,
			"no std:lastevent() item reaches every equi-join class",
		},
		{
			"grouped_delta",
			`SELECT w.loc AS l, sum(w.x) AS s FROM s.win:length(5) AS w GROUP BY w.loc`,
			"no std:lastevent() item reaches every equi-join class",
		},
		{
			"join_without_trigger_ineligible",
			`SELECT a.loc AS l, sum(b.x) AS s FROM s.win:length(5) AS a, t.win:keepall() AS b
			 WHERE a.loc = b.loc GROUP BY a.loc`,
			"no std:lastevent() item reaches every equi-join class",
		},
		{
			// The trigger reaches a.k's class but not b.j = c.j.
			"chain_without_trigger_ineligible",
			`SELECT count(*) AS n FROM s1.std:lastevent() AS a, s2.win:keepall() AS b, s3.win:keepall() AS c
			 WHERE a.k = b.k AND b.j = c.j`,
			"no std:lastevent() item reaches every equi-join class",
		},
		{
			"per_row_ineligible",
			`SELECT w.x AS x FROM s.win:length(5) AS w`,
			"the query is aggregate-free (no aggregate, no GROUP BY)",
		},
		{
			"select_star_ineligible",
			`SELECT * FROM s.win:length(5) AS w GROUP BY w.loc`,
			"SELECT * is not supported",
		},
		{
			// A field outside the trigger's equi classes differs across the
			// join rows: maintained state cannot answer it.
			"unstable_ref_ineligible",
			`SELECT w.other AS o, sum(w.x) AS s FROM s.std:lastevent() AS t, s.win:length(5) AS w
			 WHERE t.loc = w.loc GROUP BY t.loc`,
			"field w.other is not resolvable through the trigger",
		},
		{
			"unqualified_ref_ineligible",
			`SELECT x AS x, count(*) AS n FROM s.std:lastevent() AS t`,
			"field x is not resolvable through the trigger",
		},
		{
			"non_equi_join_ineligible",
			`SELECT count(*) AS n FROM s.std:lastevent() AS t, s.win:length(5) AS w WHERE t.x > w.x`,
			"WHERE conjunct (t.x > w.x) spans items without being an equi-join",
		},
		{
			"two_item_argument_ineligible",
			`SELECT sum(t.x + w.x) AS n FROM s.std:lastevent() AS t, s.win:length(5) AS w`,
			"aggregate argument (t.x + w.x) does not read one FROM item through qualified fields",
		},
		{
			"impure_filter_ineligible",
			`SELECT count(*) AS n FROM s.std:lastevent() AS t, s.win:length(5) AS w WHERE lookup(w.x) > 0`,
			"item filter (lookup(w.x) > 0) is impure",
		},
		{
			"impure_argument_ineligible",
			`SELECT avg(lookup(w.x)) AS m FROM s.std:lastevent() AS t, s.win:length(5) AS w`,
			"aggregate argument lookup(w.x) is impure",
		},
		{
			"impure_group_key_ineligible",
			`SELECT count(*) AS n FROM s.std:lastevent() AS t GROUP BY lookup(t.x)`,
			"GROUP BY key lookup(t.x) is impure",
		},
		{
			"arity_ineligible",
			`SELECT sum(w.x, w.y) AS n FROM s.std:lastevent() AS t, s.win:length(5) AS w`,
			"aggregate sum(w.x,w.y) takes 1 argument",
		},
		{
			"star_aggregate_ineligible",
			`SELECT sum(*) AS n FROM s.std:lastevent() AS t`,
			"sum(*): only count takes *",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := New()
			eng.RegisterFunction("lookup", func(args []Value) (Value, error) { return args[0], nil })
			_, errStmt := eng.AddStatement("r", c.src)
			_, errQuery := eng.AddQuery("q", epl.MustParse(c.src))
			_, errOwned := eng.AddOwnedStatement("o", c.src, "s", "loc")
			for _, err := range []error{errStmt, errQuery, errOwned} {
				switch {
				case c.want == "" && err != nil:
					t.Fatalf("registration refused: %v", err)
				case c.want != "" && (err == nil || !strings.HasSuffix(err.Error(), ": "+c.want)):
					t.Fatalf("err = %v, want the reason %q", err, c.want)
				}
			}
			if n := eng.StatementCount(); c.want != "" && n != 0 {
				t.Fatalf("%d statements registered after refusals", n)
			}
		})
	}
}

// triggerAvg is a trigger-planned statement: the latest event's location
// joined with a length window on the same stream.
const triggerAvg = `SELECT bd.loc AS l, avg(w.x) AS a
	FROM s.std:lastevent() AS bd, s.win:length(5) AS w
	WHERE bd.loc = w.loc GROUP BY bd.loc`

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
	if st.inc.items[1].gw == nil {
		t.Fatal("bd2 is not key-aligned")
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

// TestUnfoldableFilterHeldAgainstItsKey: an event whose item filter fails
// fails the evaluations of its join key, once — the failure to fold and
// the evaluation the same arrival triggers are one error — and again on
// every arrival until its window drops it; then the statement answers
// exactly. The engine matches the oracle event by event, and both match
// the sequence recompute produced when it was the engine's fallback.
func TestUnfoldableFilterHeldAgainstItsKey(t *testing.T) {
	const errBogus = `cep: statement "r": cep: value bogus (string) is not numeric`
	rig := newOracleRig()
	st := rig.add(t, "r", `SELECT bd.loc AS l, sum(w.x) AS s
		FROM s.std:lastevent() AS bd, s.win:length(3) AS w
		WHERE bd.loc = w.loc AND w.x > 0 GROUP BY bd.loc`)
	for i, ev := range []struct {
		x        Value
		err, out string
	}{
		{2.0, "", "l=sa;s=n2"},
		// Non-numeric x: w's filter fails on it.
		{"bogus", errBogus, ""},
		{3.0, errBogus, ""},
		{4.0, errBogus, ""},
		// The window {3, 4, 5} no longer holds it.
		{5.0, "", "l=sa;s=n12"},
	} {
		err := rig.send(t, i, "s", map[string]Value{"x": ev.x, "loc": "a"})
		if got := fmt.Sprint(err); (err != nil || ev.err != "") && got != ev.err {
			t.Fatalf("event %d: err = %v, want %s", i, err, ev.err)
		}
		if got := rig.batch["r"]; got != ev.out {
			t.Fatalf("event %d: emitted %q, want %q", i, got, ev.out)
		}
		if i == 1 && st.Metrics().Errors != 1 {
			t.Fatalf("errors = %d, want 1 (no double count)", st.Metrics().Errors)
		}
	}
}

// TestNonFiniteValueLeavesWithItsWindow: a NaN or an infinity cannot be
// folded into a running sum — no subtraction takes it out again — so it
// fails its key's evaluations while its window holds it, like any value an
// aggregate cannot fold, and the aggregates are exact once it has left.
func TestNonFiniteValueLeavesWithItsWindow(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rig := newOracleRig()
		rig.add(t, "r", `SELECT bd2.loc AS loc, avg(bd2.x) AS a, sum(bd2.x) AS s, max(bd2.x) AS hi, count(bd2.x) AS n
			FROM s.std:lastevent() AS bd, s.std:groupwin(loc).win:length(2) AS bd2
			WHERE bd.loc = bd2.loc GROUP BY bd2.loc`)
		for i, x := range []float64{1, bad, 2, 3, 4} {
			err := rig.send(t, i, "s", map[string]Value{"loc": "a", "x": x})
			if fails := i == 1 || i == 2; (err != nil) != fails {
				t.Fatalf("%v: event %d: err = %v, want an error %v", bad, i, err, fails)
			}
		}
		if got := rig.batch["r"]; got != "a=f3.5;hi=n4;loc=sa;n=n2;s=n7" {
			t.Fatalf("%v: after it left: %s", bad, got)
		}
	}
}

func TestIndexConjunctUnknownAliasRejected(t *testing.T) {
	// Regression: an equi conjunct naming an alias that does not exist
	// must fail compilation, not silently join against FROM item 0. The
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
				for _, e := range contents(first.win) {
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

// TestIncrementalCollectPublishesCounters: Collect publishes a statement's
// counters, and only those: evaluations counts every evaluation.
func TestIncrementalCollectPublishesCounters(t *testing.T) {
	eng := New()
	if _, err := eng.AddStatement("r", triggerAvg); err != nil {
		t.Fatal(err)
	}
	send(t, eng, "s", map[string]Value{"x": 1.0, "loc": "a"})
	reg := telemetry.NewRegistry()
	eng.Collect(reg)
	snap := reg.Gather()
	for _, name := range []string{"events_in", "evaluations", "firings"} {
		if m, ok := snap.Get("cep.stmt.r." + name); !ok || m.Value != 1 {
			t.Fatalf("%s metric = %+v (ok=%v), want 1", name, m, ok)
		}
	}
	for _, name := range []string{"incremental_evals", "recompute_fallbacks"} {
		if _, ok := snap.Get("cep.stmt.r." + name); ok {
			t.Fatalf("%s is still published", name)
		}
	}
}

// TestListing1IncrementalMatchesRecompute drives the paper's Listing 1 rule
// shape with a low threshold (so HAVING fires) through the engine and the
// oracle's recompute and compares every emitted batch.
func TestListing1IncrementalMatchesRecompute(t *testing.T) {
	rig := newOracleRig()
	rig.add(t, "r", `SELECT bd2.loc AS loc, avg(bd2.attr) AS cur, avg(th.value) AS thr
		FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
		     bus.std:groupwin(loc).win:length(4) AS bd2,
		     thr.win:keepall() AS th
		WHERE bd.hour = th.hour AND bd.day = th.day AND bd.loc = th.location AND bd.loc = bd2.loc
		GROUP BY bd2.loc
		HAVING avg(bd2.attr) > avg(th.value)`)
	rng := rand.New(rand.NewSource(11))
	i := 0
	feed := func(stream string, f map[string]Value) {
		if err := rig.send(t, i, stream, f); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for loc := 0; loc < 3; loc++ {
		for h := 0; h < 3; h++ {
			feed("thr", map[string]Value{
				"location": fmt.Sprintf("L%d", loc), "hour": float64(h),
				"day": "wd", "value": float64(rng.Intn(6)),
			})
		}
	}
	fired := 0
	for j := 0; j < 400; j++ {
		feed("bus", map[string]Value{
			"loc":  fmt.Sprintf("L%d", rng.Intn(3)),
			"hour": float64(rng.Intn(3)),
			"day":  "wd",
			"attr": float64(rng.Intn(10)),
		})
		if rig.batch["r"] != "" {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("scenario produced no firings; threshold too high to exercise HAVING")
	}
}

func TestProcTimeSampledOnlyWithRegistry(t *testing.T) {
	// Statement wall-clock sampling costs two time.Now calls per event;
	// it must be off unless a telemetry registry consumes it.
	const src = `SELECT avg(w.x) AS a FROM s.std:lastevent() AS t, s.win:length(5) AS w`
	plain := New()
	st, err := plain.AddStatement("r", src)
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
	st2, err := wired.AddStatement("r", src)
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
