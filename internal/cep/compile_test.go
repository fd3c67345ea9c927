package cep

import (
	"fmt"
	"math/rand"
	"testing"

	"trafficcep/internal/epl"
)

// TestCompiledScalarFunctionShadowing pins the late-binding contract:
// compiled call sites resolve the function registry at evaluation time, so
// a RegisterFunction call AFTER AddStatement — including one that shadows
// a builtin — affects already-compiled statements, exactly like eval.
func TestCompiledScalarFunctionShadowing(t *testing.T) {
	eng := New()
	st, err := eng.AddStatement("r", `SELECT abs(w.x) AS a, count(*) AS n FROM s.std:lastevent() AS w`)
	if err != nil {
		t.Fatal(err)
	}
	var last []Output
	st.AddListener(func(_ *Statement, outs []Output) { last = outs })
	send(t, eng, "s", map[string]Value{"x": -3.0})
	if last[0].Fields["a"] != 3.0 {
		t.Fatalf("builtin abs = %v", last[0].Fields["a"])
	}
	eng.RegisterFunction("abs", func(args []Value) (Value, error) { return 42.0, nil })
	send(t, eng, "s", map[string]Value{"x": -3.0})
	if last[0].Fields["a"] != 42.0 {
		t.Fatalf("late-registered shadow not visible, got %v", last[0].Fields["a"])
	}
}

// TestUnfoldableArgumentHeldAgainstItsKey: an event whose aggregate
// argument cannot be folded — a string where avg needs a number — stays
// counted against its join key until its window drops it. Evaluations of
// that key fail meanwhile, those of another key do not, and once the event
// has left, the key's aggregates are exact again. The engine matches the
// oracle event by event, and both match the sequence recompute produced
// when it was the engine's fallback.
func TestUnfoldableArgumentHeldAgainstItsKey(t *testing.T) {
	src := `SELECT bd2.loc AS loc, avg(bd2.a) AS cur, count(*) AS c
		FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
		     bus.std:groupwin(loc).win:length(4) AS bd2,
		     thr.win:keepall() AS th
		WHERE bd.loc = th.location AND bd.loc = bd2.loc
		GROUP BY bd2.loc`
	const errOops = `cep: statement "r": cep: aggregate avg over non-numeric value oops`
	thr, err := NewTable([]string{"location", "value"}, 1, []map[string]Value{
		{"location": "L1", "value": 2.0},
		{"location": "L2", "value": 5.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := []struct {
		stream string
		fields map[string]Value
		err    string
		out    string
	}{
		{"bus", map[string]Value{"loc": "L1", "a": 3.0}, "", "c=n1;cur=n3;loc=sL1"},
		{"bus", map[string]Value{"loc": "L1", "a": 4.0}, "", "c=n2;cur=f3.5;loc=sL1"},
		{"bus", map[string]Value{"loc": "L2", "a": 6.0}, "", "c=n1;cur=n6;loc=sL2"},
		// win:length(4) keeps the string for four arrivals at L1.
		{"bus", map[string]Value{"loc": "L1", "a": "oops"}, errOops, ""},
		{"bus", map[string]Value{"loc": "L1", "a": 5.0}, errOops, ""},
		{"bus", map[string]Value{"loc": "L1", "a": 6.0}, errOops, ""},
		{"bus", map[string]Value{"loc": "L1", "a": 7.0}, errOops, ""},
		{"bus", map[string]Value{"loc": "L1", "a": 8.0}, "", "c=n4;cur=f6.5;loc=sL1"},
		{"bus", map[string]Value{"loc": "L2", "a": 9.0}, "", "c=n2;cur=f7.5;loc=sL2"},
	}
	rig := newOracleRig()
	if err := rig.eng.RegisterTable("thr", thr); err != nil {
		t.Fatal(err)
	}
	rig.add(t, "r", src)
	for i, ev := range feed {
		err := rig.send(t, i, ev.stream, ev.fields)
		if got := fmt.Sprint(err); (err != nil || ev.err != "") && got != ev.err {
			t.Fatalf("event %d: err = %v, want %s", i, err, ev.err)
		}
		if got := rig.batch["r"]; got != ev.out {
			t.Fatalf("event %d: emitted %q, want %q", i, got, ev.out)
		}
	}
}

// listing1EPL is the Listing-1 template rule in the text
// core.Rule.StreamEPL renders (this package cannot import core): the
// windowed average of attr per location loc against the thresholds of the
// table registered as thr.
func listing1EPL(loc, attr string, window int, thr string) string {
	return fmt.Sprintf(`SELECT bd2.%[1]s AS location, avg(bd2.%[2]s) AS observed, avg(thresholds.value) AS threshold
FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
     bus.std:groupwin(%[1]s).win:length(%[3]d) AS bd2,
     %[4]s.win:keepall() AS thresholds
WHERE bd.hour = thresholds.hour AND bd.day = thresholds.day
  AND bd.%[1]s = thresholds.location AND bd.%[1]s = bd2.%[1]s
GROUP BY bd2.%[1]s
HAVING avg(bd2.%[2]s) > avg(thresholds.value)`, loc, attr, window, thr)
}

// listing1Scenarios are the four template rules of the shipped topology,
// each over a thresholds table, registered as "tab", and a feed of enriched
// bus events.
func listing1Scenarios() []diffScenario {
	var out []diffScenario
	for _, r := range []struct {
		name, loc, attr string
		window          int
	}{
		{"leafDelay", "leafArea", "delay", 10},
		{"leafSpeed", "leafArea", "speed", 100},
		{"stopDelay", "stopId", "delay", 10},
		{"stopActual", "stopId", "actualDelay", 10},
	} {
		src := listing1EPL(r.loc, r.attr, r.window, "tab")
		rng := rand.New(rand.NewSource(int64(r.window) + int64(len(r.name))))
		var feed []diffEvent
		var rows []map[string]Value
		for i := 0; i < 200; i++ {
			loc := fmt.Sprintf("L%d", rng.Intn(3))
			if i%10 == 0 {
				rows = append(rows, map[string]Value{
					"location": loc, "hour": rng.Intn(2), "day": "weekday", "value": float64(rng.Intn(5)),
				})
			}
			feed = append(feed, diffEvent{stream: "bus", fields: map[string]Value{
				r.loc: loc, "hour": rng.Intn(2), "day": "weekday", r.attr: float64(rng.Intn(9)) - 2,
			}})
		}
		table, err := NewTable([]string{"location", "hour", "day", "value"}, 3, rows)
		if err != nil {
			panic(err)
		}
		out = append(out, diffScenario{"Listing1/" + r.name, map[string]string{r.name: src}, feed, false, table})
	}
	return out
}

// statementExprs lists every expression st evaluates — HAVING (nil when
// absent), WHERE conjuncts, SELECT items, GROUP BY keys, aggregate
// arguments — and each one compiled against the statement's own
// bind table and aggregate slots.
func statementExprs(st *Statement) ([]epl.Expr, []compiledExpr) {
	q := st.Query
	exprs := append([]epl.Expr{q.Having}, st.conjuncts...)
	for _, s := range q.Select {
		if !s.Star {
			exprs = append(exprs, s.Expr)
		}
	}
	exprs = append(exprs, q.GroupBy...)
	for _, call := range st.aggCalls {
		exprs = append(exprs, call.Args...)
	}
	return exprs, st.exprCompiler(st.comp.aggOf).values(exprs)
}

// TestCompiledMatchesEval holds the compiler to eval on real statements:
// every expression of the four shipped Listing-1 rules and of every
// differential scenario — SELECT items, WHERE conjuncts, GROUP BY keys,
// HAVING, aggregate arguments — is compiled against the
// statement's own bind table and aggregate slots, then evaluated by both
// over rows assembled from the scenario's feed and table. Same value, and an
// error from one exactly when from the other.
func TestCompiledMatchesEval(t *testing.T) {
	for _, sc := range append(listing1Scenarios(), diffScenarios()...) {
		sc := sc
		t.Run(sc.label, func(t *testing.T) {
			agreed := 0
			for name, src := range sc.stmts {
				eng := New()
				if sc.table != nil {
					if err := eng.RegisterTable("tab", sc.table); err != nil {
						t.Fatal(err)
					}
				}
				st, err := eng.AddStatement(name, src)
				if err != nil {
					t.Fatal(err)
				}
				exprs, compiled := statementExprs(st)

				row := make([]*Event, len(st.items))
				n := len(st.aggCalls)
				ctx := &evalContext{row: row, aggF: make([]float64, n), aggNull: make([]bool, n)}
				oracle := &oracleContext{row: row, aliasOrder: st.aliasOrder, aggs: make(map[string]Value, n)}
				for i, ev := range sc.feed {
					for idx, it := range st.items {
						switch {
						case it.table != nil && it.table.cur.Len() > 0:
							row[idx] = &it.table.cur.rows[i%it.table.cur.Len()]
						case it.table == nil && ev.stream == st.stream:
							row[idx] = st.engine.bind(&Event{Stream: ev.stream, Fields: ev.fields})
						}
					}
					for k, call := range st.aggCalls {
						ctx.aggF[k] = float64((i*7+k*3)%11) - 3
						ctx.aggNull[k] = (i+k)%13 == 0
						oracle.aggs[call.String()] = ctx.aggF[k]
						if ctx.aggNull[k] {
							oracle.aggs[call.String()] = nil
						}
					}
					for j, e := range exprs {
						if e == nil {
							continue
						}
						want, errWant := eval(e, oracle)
						got, errGot := compiled[j](ctx)
						if (errWant == nil) != (errGot == nil) {
							t.Fatalf("%s: %v at event %d: eval err=%v, compiled err=%v", name, e, i, errWant, errGot)
						}
						if errWant == nil {
							if valueKey(want) != valueKey(got) {
								t.Fatalf("%s: %v at event %d: eval %#v, compiled %#v", name, e, i, want, got)
							}
							agreed++
						}
					}
				}
			}
			if agreed == 0 {
				t.Fatal("no expression ever evaluated without error; the scenario compares nothing")
			}
		})
	}
}
