package cep

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"trafficcep/internal/epl"
	"trafficcep/internal/telemetry"
)

// TestIncrementalStrategySelection pins the registration rule: a statement
// registers only when it is an instance of the rule template the trigger
// plan runs, and every way into the engine refuses one that is not with the
// reason, leaving nothing registered. A case marked owned is refused only
// when restricted to the owned keys of s.loc.
func TestIncrementalStrategySelection(t *testing.T) {
	cases := []struct {
		name, src, want string // want "" registers
		owned           bool
	}{
		{
			"listing1_trigger",
			`SELECT bd2.loc, avg(bd2.attr) AS a FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
			 bus.std:groupwin(loc).win:length(10) AS bd2, th.win:keepall() AS th
			 WHERE bd.hour = th.hour AND bd.loc = th.location AND bd.loc = bd2.loc
			 GROUP BY bd2.loc HAVING avg(bd2.attr) > avg(th.value)`,
			"", false,
		},
		{
			// Single-window aggregates have no trigger item.
			"single_window_delta",
			`SELECT avg(w.x) AS a FROM s.win:length(5) AS w`,
			"no std:lastevent() item triggers the statement", false,
		},
		{
			"grouped_delta",
			`SELECT w.loc AS l, sum(w.x) AS s FROM s.win:length(5) AS w GROUP BY w.loc`,
			"no std:lastevent() item triggers the statement", false,
		},
		{
			"join_without_trigger_ineligible",
			`SELECT a.loc AS l, sum(a.x) AS s FROM s.win:length(5) AS a, th AS b
			 WHERE a.loc = b.location GROUP BY a.loc`,
			"no std:lastevent() item triggers the statement", false,
		},
		{
			// b.hour = c.hour joins two items that are not the trigger.
			"chain_without_trigger_ineligible",
			`SELECT count(*) AS n FROM s.std:lastevent() AS a, s.std:groupwin(loc).win:length(5) AS b, th AS c
			 WHERE a.loc = b.loc AND a.loc = c.location AND b.hour = c.hour`,
			"equi-join (b.hour = c.hour) does not read the trigger", false,
		},
		{
			"two_triggers_refused",
			`SELECT count(*) AS n FROM s.std:lastevent() AS a, s.std:lastevent() AS b WHERE a.loc = b.loc`,
			"items a and b are both std:lastevent(); a statement has one trigger", false,
		},
		{
			"second_stream_refused",
			`SELECT avg(x.a) AS m FROM s.std:lastevent() AS t, aux.std:groupwin(loc).win:length(5) AS x
			 WHERE t.loc = x.loc`,
			"item x reads stream aux, not the trigger's stream s", false,
		},
		{
			"ungrouped_window_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s.win:length(5) AS w WHERE t.loc = w.loc`,
			"item w: win:length(5) is not grouped; a window item is std:groupwin(f).win:length(n)", false,
		},
		{
			"keepall_window_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s.win:keepall() AS w WHERE t.loc = w.loc`,
			"item w: win:keepall() keeps every event; a window item is std:groupwin(f).win:length(n)", false,
		},
		{
			// A stream item with no view would keep every event.
			"no_view_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s AS w WHERE t.loc = w.loc`,
			"item w: no view keeps every event; a window item is std:groupwin(f).win:length(n)", false,
		},
		{
			"composite_group_key_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s.std:groupwin(loc,hour).win:length(5) AS w
			 WHERE t.loc = w.loc AND t.hour = w.hour`,
			"item w: std:groupwin(loc,hour).win:length(5) has a composite group key; a window item is grouped on one field", false,
		},
		{
			"unbounded_group_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s.std:groupwin(loc) AS w WHERE t.loc = w.loc`,
			"item w: std:groupwin(loc) does not bound its groups with win:length(n)", false,
		},
		{
			"group_keepall_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:keepall() AS w WHERE t.loc = w.loc`,
			"item w: std:groupwin(loc).win:keepall() does not bound its groups with win:length(n)", false,
		},
		{
			// Joined on hour, grouped on loc: the trigger's group is not the
			// join key's.
			"group_joined_off_key_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:length(5) AS w WHERE t.hour = w.hour`,
			"item w is grouped on loc: it joins the trigger by exactly t.loc = w.loc", false,
		},
		{
			"group_joined_twice_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:length(5) AS w
			 WHERE t.loc = w.loc AND t.hour = w.hour`,
			"item w is grouped on loc: it joins the trigger by exactly t.loc = w.loc", false,
		},
		{
			"group_not_joined_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:length(5) AS w`,
			"item w is grouped on loc: it joins the trigger by exactly t.loc = w.loc", false,
		},
		{
			// Unrestricted, a window grouped on hour is the template; restricted
			// to owned locations, a disowned location would leave its rows in
			// the hour groups.
			"owned_off_field_refused",
			`SELECT sum(w.x) AS s FROM s.std:lastevent() AS t, s.std:groupwin(hour).win:length(5) AS w WHERE t.hour = w.hour`,
			"item w is grouped on hour, not on the owned field loc", true,
		},
		{
			"per_row_ineligible",
			`SELECT w.x AS x FROM s.win:length(5) AS w`,
			"the query is aggregate-free (no aggregate, no GROUP BY)", false,
		},
		{
			"select_star_ineligible",
			`SELECT * FROM s.win:length(5) AS w GROUP BY w.loc`,
			"SELECT * is not supported", false,
		},
		{
			// A field outside the trigger's equi-joins differs across the
			// join rows: maintained state cannot answer it.
			"unstable_ref_ineligible",
			`SELECT w.other AS o, sum(w.x) AS s FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:length(5) AS w
			 WHERE t.loc = w.loc GROUP BY t.loc`,
			"field w.other is not resolvable through the trigger", false,
		},
		{
			"unqualified_ref_ineligible",
			`SELECT x AS x, count(*) AS n FROM s.std:lastevent() AS t`,
			"field x is not resolvable through the trigger", false,
		},
		{
			"non_equi_join_ineligible",
			`SELECT count(*) AS n FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:length(5) AS w
			 WHERE t.loc = w.loc AND t.x > w.x`,
			"WHERE conjunct (t.x > w.x) spans items without being an equi-join", false,
		},
		{
			"two_item_argument_ineligible",
			`SELECT sum(t.x + w.x) AS n FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:length(5) AS w WHERE t.loc = w.loc`,
			"aggregate argument (t.x + w.x) does not read one FROM item through qualified fields", false,
		},
		{
			"impure_filter_ineligible",
			`SELECT count(*) AS n FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:length(5) AS w
			 WHERE t.loc = w.loc AND lookup(w.x) > 0`,
			"item filter (lookup(w.x) > 0) is impure", false,
		},
		{
			"impure_argument_ineligible",
			`SELECT avg(lookup(w.x)) AS m FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:length(5) AS w WHERE t.loc = w.loc`,
			"aggregate argument lookup(w.x) is impure", false,
		},
		{
			"impure_group_key_ineligible",
			`SELECT count(*) AS n FROM s.std:lastevent() AS t GROUP BY lookup(t.x)`,
			"GROUP BY key lookup(t.x) is impure", false,
		},
		{
			"arity_ineligible",
			`SELECT sum(w.x, w.y) AS n FROM s.std:lastevent() AS t, s.std:groupwin(loc).win:length(5) AS w WHERE t.loc = w.loc`,
			"aggregate sum(w.x,w.y) takes 1 argument", false,
		},
		{
			"star_aggregate_ineligible",
			`SELECT sum(*) AS n FROM s.std:lastevent() AS t`,
			"sum(*): only count takes *", false,
		},
	}
	th, err := NewTable([]string{"location", "hour", "value"}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := New()
			eng.RegisterFunction("lookup", func(args []Value) (Value, error) { return args[0], nil })
			if err := eng.RegisterTable("th", th); err != nil {
				t.Fatal(err)
			}
			_, errStmt := eng.AddStatement("r", c.src)
			_, errQuery := eng.AddQuery("q", epl.MustParse(c.src))
			_, errOwned := eng.AddOwnedStatement("o", c.src, "s", "loc")
			for i, err := range []error{errStmt, errQuery, errOwned} {
				want := c.want
				if c.owned && i < 2 {
					want = ""
				}
				switch {
				case want == "" && err != nil:
					t.Fatalf("registration refused: %v", err)
				case want != "" && (err == nil || !strings.HasSuffix(err.Error(), ": "+want)):
					t.Fatalf("err = %v, want the reason %q", err, want)
				}
			}
			if n, want := eng.StatementCount(), map[bool]int{true: 2, false: 0}[c.owned]; c.want != "" && n != want {
				t.Fatalf("%d statements registered after refusals, want %d", n, want)
			}
		})
	}
}

// triggerAvg is a trigger-planned statement: the latest event's location
// joined with its group of a length window on the same stream.
const triggerAvg = `SELECT bd.loc AS l, avg(w.x) AS a
	FROM s.std:lastevent() AS bd, s.std:groupwin(loc).win:length(5) AS w
	WHERE bd.loc = w.loc GROUP BY bd.loc`

func TestIncrementalMinMaxEviction(t *testing.T) {
	// min/max must follow evictions out of a sliding window: after the 9
	// leaves a group's length-3 window, max falls back to the remaining
	// values. Evictions retract through the group's value ring.
	eng := New()
	st, err := eng.AddStatement("r", `SELECT bd2.loc AS loc, min(bd2.x) AS lo, max(bd2.x) AS hi
		FROM s.std:lastevent() AS bd, s.std:groupwin(loc).win:length(3) AS bd2
		WHERE bd.loc = bd2.loc GROUP BY bd2.loc`)
	if err != nil {
		t.Fatal(err)
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
		FROM s.std:lastevent() AS bd, s.std:groupwin(loc).win:length(3) AS w
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
// incremental maintenance depends on: insert(ev) returns the position ev
// took in its group; the window grows exactly when that position held no
// event, and otherwise the event it held is the one the window evicts. A ring replayed
// from the returned positions must hold exactly the events the oracle's
// window of the same chain retains, and size() must count them. The
// windows are reached the way statements reach them — through an engine
// view two FROM items subscribed to — so it also holds the once-per-turn
// insert: the second subscriber's insert of the turn's event must hand back
// the first one's position and leave the window alone.
func TestWindowDeltaContract(t *testing.T) {
	specs := []string{
		"std:lastevent()",
		"win:length(3)",
		"std:groupwin(k).win:length(2)",
		"std:groupwin(k).std:lastevent()",
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
			ref := newOracleWin(q.From[0].Views, viewSchema)
			replay := map[string]map[int]*Event{} // group → position → event
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				ev := mkEvent(i, map[string]Value{"k": float64(rng.Intn(4)), "v": float64(i)})
				size := first.win.size()
				pos := first.insert(ev)
				grew := first.win.size() - size
				if p2 := second.insert(ev); p2 != pos || first.win.size() != size+grew {
					t.Fatalf("step %d: the turn's second insert returned position %d after %d, size %d after %d",
						i, p2, pos, first.win.size(), size+grew)
				}
				g := string(appendSlotsKey(nil, ev, ref.keys))
				if replay[g] == nil {
					replay[g] = map[int]*Event{}
				}
				old, held := replay[g][pos]
				if held != (grew == 0) || grew > 1 {
					t.Fatalf("step %d: position %d grew the window by %d, the replay holds it: %v", i, pos, grew, held)
				}
				before := slices.Clone(ref.groups[g])
				ref.insert(ev)
				if held && (len(before) == 0 || old != before[0] || slices.Contains(ref.groups[g], old)) {
					t.Fatalf("step %d: position %d held an event the window did not evict", i, pos)
				}
				replay[g][pos] = ev
				live := ref.contents()
				if size+grew != len(live) {
					t.Fatalf("step %d: size %d, the window retains %d", i, size+grew, len(live))
				}
				n := 0
				for _, ring := range replay {
					for _, e := range ring {
						if !slices.Contains(live, e) {
							t.Fatalf("step %d: the replay holds %v, which the window dropped", i, e.Fields)
						}
						n++
					}
				}
				if n != len(live) {
					t.Fatalf("step %d: the replay holds %d events, the window %d", i, n, len(live))
				}
			}
			if late, _ := eng.acquireView(&Statement{}, q.From[0], viewSchema); late == first {
				t.Fatal("an item joined a view that has received events")
			}
		})
	}
}

// TestFunctionRegisteredOverBuiltinMidStream: a function registered over a
// built-in while a window holds events leaves those events folded as they
// arrived — through the item filter, or into an aggregate argument — and
// each leaves the accumulators with its window position. Once the window
// has turned over, the statement matches the oracle, which evaluates every
// retained event with the functions registered now.
func TestFunctionRegisteredOverBuiltinMidStream(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"filter", `SELECT count(*) AS n, sum(w.x) AS s
			FROM s.std:lastevent() AS t, s.std:groupwin(k).win:length(2) AS w WHERE t.k = w.k AND abs(w.x) > 1`, ""},
		{"argument", `SELECT count(*) AS n, sum(abs(w.x)) AS s
			FROM s.std:lastevent() AS t, s.std:groupwin(k).win:length(2) AS w WHERE t.k = w.k`, "n=n2;s=n0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rig := newOracleRig()
			rig.add(t, "r", c.src)
			five := map[string]Value{"k": "a", "x": 5.0}
			for i := 0; i < 3; i++ {
				rig.send(t, i, "s", five)
			}
			rig.eng.RegisterFunction("abs", func([]Value) (Value, error) { return 0.0, nil })
			// The window still holds two events abs was a built-in for.
			for i := 3; i < 5; i++ {
				send(t, rig.eng, "s", five)
				rig.ref.send("s", five)
			}
			for i := 5; i < 9; i++ {
				rig.send(t, i, "s", five)
			}
			if got := rig.batch["r"]; got != c.want {
				t.Fatalf("after the window turned over: emitted %q, want %q", got, c.want)
			}
		})
	}
}

// TestIncrementalCollectPublishesCounters: Collect publishes a statement's
// counters, and only those: every event in is one evaluation, so no
// evaluations series copies events_in.
func TestIncrementalCollectPublishesCounters(t *testing.T) {
	eng := New()
	if _, err := eng.AddStatement("r", triggerAvg); err != nil {
		t.Fatal(err)
	}
	send(t, eng, "s", map[string]Value{"x": 1.0, "loc": "a"})
	reg := telemetry.NewRegistry()
	eng.Collect(reg)
	snap := reg.Gather()
	for _, name := range []string{"events_in", "firings"} {
		if m, ok := snap.Get("cep.stmt.r." + name); !ok || m.Value != 1 {
			t.Fatalf("%s metric = %+v (ok=%v), want 1", name, m, ok)
		}
	}
	for _, name := range []string{"evaluations", "incremental_evals", "recompute_fallbacks"} {
		if _, ok := snap.Get("cep.stmt.r." + name); ok {
			t.Fatalf("%s is still published", name)
		}
	}
}

// TestListing1IncrementalMatchesRecompute drives the paper's Listing 1 rule
// shape with a low threshold (so HAVING fires) through the engine and the
// oracle's recompute and compares every emitted batch.
func TestListing1IncrementalMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rows []map[string]Value
	for loc := 0; loc < 3; loc++ {
		for h := 0; h < 3; h++ {
			rows = append(rows, map[string]Value{
				"location": fmt.Sprintf("L%d", loc), "hour": float64(h),
				"day": "wd", "value": float64(rng.Intn(6)),
			})
		}
	}
	thr, err := NewTable([]string{"location", "hour", "day", "value"}, 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	rig := newOracleRig()
	if err := rig.eng.RegisterTable("thr", thr); err != nil {
		t.Fatal(err)
	}
	rig.add(t, "r", `SELECT bd2.loc AS loc, avg(bd2.attr) AS cur, avg(th.value) AS thr
		FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
		     bus.std:groupwin(loc).win:length(4) AS bd2,
		     thr.win:keepall() AS th
		WHERE bd.hour = th.hour AND bd.day = th.day AND bd.loc = th.location AND bd.loc = bd2.loc
		GROUP BY bd2.loc
		HAVING avg(bd2.attr) > avg(th.value)`)
	fired := 0
	for j := 0; j < 400; j++ {
		err := rig.send(t, j, "bus", map[string]Value{
			"loc":  fmt.Sprintf("L%d", rng.Intn(3)),
			"hour": float64(rng.Intn(3)),
			"day":  "wd",
			"attr": float64(rng.Intn(10)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rig.batch["r"] != "" {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("scenario produced no firings; threshold too high to exercise HAVING")
	}
}

// TestStatementCountsEveryEvent: a statement counts its work and nothing
// else: every event in, and here a firing per event.
func TestStatementCountsEveryEvent(t *testing.T) {
	const src = `SELECT avg(w.x) AS a FROM s.std:lastevent() AS t, s.std:groupwin(k).win:length(5) AS w WHERE t.k = w.k`
	eng := New()
	st, err := eng.AddStatement("r", src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		send(t, eng, "s", map[string]Value{"k": "a", "x": float64(i)})
	}
	if m, want := st.Metrics(), (StatementMetrics{EventsIn: 50, Firings: 50}); m != want {
		t.Fatalf("metrics %+v, want %+v", m, want)
	}
}
