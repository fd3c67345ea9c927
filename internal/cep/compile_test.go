package cep

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"trafficcep/internal/epl"
)

// TestCompiledScalarFunctionShadowing pins the late-binding contract:
// compiled call sites resolve the function registry at evaluation time, so
// a RegisterFunction call AFTER AddStatement — including one that shadows
// a builtin — affects already-compiled statements, exactly like eval.
func TestCompiledScalarFunctionShadowing(t *testing.T) {
	eng := New()
	st, err := eng.AddStatement("r", `SELECT abs(w.x) AS a FROM s.std:lastevent() AS w`)
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

// TestTriggerPlanBreakRebuildsIndexes is the regression test for the
// index-maintenance skip: an armed trigger plan never probes the join hash
// indexes, so process() stops maintaining them — but when the plan breaks
// mid-stream, the recompute path it falls back to probes those very
// indexes. disable() must rebuild them from window contents or every
// subsequent join silently comes up empty.
func TestTriggerPlanBreakRebuildsIndexes(t *testing.T) {
	src := `SELECT bd2.loc AS loc, avg(bd2.a) AS cur, count(*) AS c
		FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
		     bus.std:groupwin(loc).win:length(4) AS bd2,
		     thr.win:keepall() AS th
		WHERE bd.loc = th.location AND bd.loc = bd2.loc
		GROUP BY bd2.loc`

	canon := func(outs []Output) []string {
		batch := make([]string, len(outs))
		for i, o := range outs {
			batch[i] = canonFields(o.Fields)
		}
		sort.Strings(batch)
		return batch
	}

	run := func(recompute bool) (st *Statement, feedFn func(stream string, f map[string]Value) error, batches *[][]string) {
		eng := New()
		st, err := eng.AddStatement("r", src)
		if err != nil {
			t.Fatal(err)
		}
		if recompute {
			forceRecompute(st)
		}
		var collected [][]string
		batches = &collected
		st.AddListener(func(_ *Statement, outs []Output) {
			collected = append(collected, canon(outs))
		})
		return st, func(stream string, f map[string]Value) error { return eng.SendEvent(stream, f) }, batches
	}

	stInc, sendInc, incBatches := run(false)
	stRec, sendRec, recBatches := run(true)

	if got := stInc.IncrementalStrategy(); got != "trigger" {
		t.Fatalf("precondition: strategy = %q, want trigger (the scenario exercises nothing otherwise)", got)
	}
	if got := stRec.IncrementalStrategy(); got != "broken" {
		t.Fatalf("reference rig must recompute, strategy = %q", got)
	}

	feed := []struct {
		stream string
		fields map[string]Value
	}{
		{"thr", map[string]Value{"location": "L1", "value": 2.0}},
		{"thr", map[string]Value{"location": "L2", "value": 5.0}},
		{"bus", map[string]Value{"loc": "L1", "a": 3.0}},
		{"bus", map[string]Value{"loc": "L1", "a": 4.0}},
		{"bus", map[string]Value{"loc": "L2", "a": 6.0}},
		// Poison: non-numeric aggregate input breaks trigger maintenance.
		// win:length(4) evicts it after a few more events, so recompute
		// recovers; until then both rigs error identically.
		{"bus", map[string]Value{"loc": "L1", "a": "oops"}},
		{"bus", map[string]Value{"loc": "L1", "a": 5.0}},
		{"bus", map[string]Value{"loc": "L1", "a": 6.0}},
		{"bus", map[string]Value{"loc": "L1", "a": 7.0}},
		// Poison evicted: joins must flow again — through rebuilt indexes.
		{"bus", map[string]Value{"loc": "L1", "a": 8.0}},
		{"bus", map[string]Value{"loc": "L2", "a": 9.0}},
	}
	for i, ev := range feed {
		errInc := sendInc(ev.stream, ev.fields)
		errRec := sendRec(ev.stream, ev.fields)
		if (errInc == nil) != (errRec == nil) {
			t.Fatalf("event %d: error mismatch: inc=%v rec=%v", i, errInc, errRec)
		}
		if errInc != nil && !strings.Contains(errInc.Error(), "non-numeric") {
			t.Fatalf("event %d: unexpected error %v", i, errInc)
		}
	}
	if got := stInc.IncrementalStrategy(); got != "broken" {
		t.Fatalf("poison should have broken the plan, strategy = %q", got)
	}
	if len(*incBatches) != len(*recBatches) {
		t.Fatalf("batch counts diverged: inc=%d rec=%d", len(*incBatches), len(*recBatches))
	}
	if len(*incBatches) == 0 {
		t.Fatal("scenario produced no outputs")
	}
	for bi := range *incBatches {
		a, b := (*incBatches)[bi], (*recBatches)[bi]
		if len(a) != len(b) {
			t.Fatalf("batch %d: %d vs %d outputs\n inc: %v\n rec: %v", bi, len(a), len(b), a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("batch %d output %d:\n inc: %s\n rec: %s", bi, j, a[j], b[j])
			}
		}
	}
}

// listing1EPL is the Listing-1 template rule in the text
// core.Rule.StreamEPL renders (this package cannot import core): the
// windowed average of attr per location loc against the thresholds fed on
// stream thr.
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
// each over a feed of thresholds and enriched bus events.
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
		thr := "thresholds_" + r.name
		src := listing1EPL(r.loc, r.attr, r.window, thr)
		rng := rand.New(rand.NewSource(int64(r.window) + int64(len(r.name))))
		var feed []diffEvent
		for i := 0; i < 200; i++ {
			loc := fmt.Sprintf("L%d", rng.Intn(3))
			if i%10 == 0 {
				feed = append(feed, diffEvent{thr, map[string]Value{
					"location": loc, "hour": rng.Intn(2), "day": "weekday", "value": float64(rng.Intn(5)),
				}})
			}
			feed = append(feed, diffEvent{"bus", map[string]Value{
				r.loc: loc, "hour": rng.Intn(2), "day": "weekday", r.attr: float64(rng.Intn(9)) - 2,
			}})
		}
		out = append(out, diffScenario{"Listing1/" + r.name, map[string]string{r.name: src}, feed})
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
// over rows assembled from the scenario's feed. Same value, and an error
// from one exactly when from the other.
func TestCompiledMatchesEval(t *testing.T) {
	for _, sc := range append(listing1Scenarios(), diffScenarios()...) {
		sc := sc
		t.Run(sc.label, func(t *testing.T) {
			agreed := 0
			for name, src := range sc.stmts {
				st, err := New().AddStatement(name, src)
				if err != nil {
					t.Fatal(err)
				}
				exprs, compiled := statementExprs(st)

				row := make([]*Event, len(st.items))
				n := len(st.aggCalls)
				ctx := &evalContext{row: row, aggF: make([]float64, n), aggNull: make([]bool, n)}
				oracle := &oracleContext{row: row, aliasOrder: st.aliasOrder, aggs: make(map[string]Value, n)}
				for i, ev := range sc.feed {
					for _, idx := range st.itemsByStream[ev.stream] {
						row[idx] = st.engine.bind(&Event{Stream: ev.stream, Fields: ev.fields})
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
