package cep

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"trafficcep/internal/telemetry"
)

// Shared-view oracle: the same statements are run (a) together in one
// engine, where FROM items that coincide resolve to one engine-owned view,
// and (b) each alone in an engine of its own, where nothing can be shared.
// One feed drives both; every statement must emit the same output sequence
// — fields and representative rows, batch by batch, in order — raise errors
// on the same events and end on the same plan. No switch selects a path:
// (b) is the engine as it is with one statement in it. Both engines own the
// same keys, and statements restricted to them (AddOwnedStatement) may share
// a view only with statements under the same restriction.

// sharedStmt is one statement of a shared-view scenario; thr names the
// threshold stream it joins, empty when it has none, and owned the bus field
// whose owned keys it is restricted to, empty when it is not.
type sharedStmt struct {
	name, src, thr, owned string
}

// sharedRig runs a set of statements in one engine and records, per
// statement, every batch it emitted.
type sharedRig struct {
	eng  *Engine
	outs map[string][]string
}

// newSharedRig is an empty rig whose engine owns three of the feed's four
// loc keys and one of its two loc2 keys.
func newSharedRig() *sharedRig {
	eng := New()
	eng.Own("bus", "loc", "L0", "L2", "L3")
	eng.Own("bus", "loc2", "L1")
	return &sharedRig{eng: eng, outs: make(map[string][]string)}
}

func canonOutput(o Output) string {
	aliases := make([]string, 0, len(o.Row))
	for a := range o.Row {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	var sb strings.Builder
	sb.WriteString(canonFields(o.Fields))
	for _, a := range aliases {
		sb.WriteString(" @" + a + "{" + canonFields(o.Row[a].Fields) + "}")
	}
	return sb.String()
}

func (r *sharedRig) add(t *testing.T, s sharedStmt, thresholds []diffEvent) {
	t.Helper()
	var st *Statement
	var err error
	if s.owned == "" {
		st, err = r.eng.AddStatement(s.name, s.src)
	} else {
		st, err = r.eng.AddOwnedStatement(s.name, s.src, "bus", s.owned)
	}
	if err != nil {
		t.Fatalf("add %s: %v", s.name, err)
	}
	st.AddListener(func(st *Statement, outs []Output) {
		batch := make([]string, len(outs))
		for i, o := range outs {
			batch[i] = canonOutput(o)
		}
		r.outs[st.Name] = append(r.outs[st.Name], strings.Join(batch, " | "))
	})
	for _, ev := range thresholds {
		if ev.stream == s.thr {
			if err := r.eng.SendEvent(ev.stream, ev.fields); err != nil {
				t.Fatalf("thresholds of %s: %v", s.name, err)
			}
		}
	}
}

// sharedStatements draws a statement set whose view specs overlap and
// differ: Listing-1 rules over three window lengths and two location
// fields, aggregating an attribute that is sometimes nil (b) or sometimes a
// string (c, which breaks the plan), a filtered min/max rule on the same
// windows, a trigger rule keyed through an ungrouped window, one whose
// grouped window reads another stream than its trigger, a two-field group,
// and recomputed statements that read the shared windows — two of them
// through two items on one stream. Each is restricted to the
// owned loc keys, the owned loc2 keys or nothing, at random.
func sharedStatements(rng *rand.Rand) []sharedStmt {
	lengths := []int{1, 10, 100}
	var out []sharedStmt
	n := 0
	name := func(kind string) string { n++; return fmt.Sprintf("%s%d", kind, n) }
	for i, k := 0, 3+rng.Intn(3); i < k; i++ {
		nm := name("rule")
		loc := []string{"loc", "loc", "loc2"}[rng.Intn(3)]
		attr := []string{"a", "a", "b", "c"}[rng.Intn(4)]
		out = append(out, sharedStmt{nm, fmt.Sprintf(`SELECT bd2.%[1]s AS location, avg(bd2.%[2]s) AS observed, avg(th.value) AS threshold
			FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
			     bus.std:groupwin(%[1]s).win:length(%[3]d) AS bd2,
			     thr_%[4]s.win:keepall() AS th
			WHERE bd.hour = th.hour AND bd.%[1]s = th.location AND bd.%[1]s = bd2.%[1]s
			GROUP BY bd2.%[1]s
			HAVING avg(bd2.%[2]s) > avg(th.value)`, loc, attr, lengths[rng.Intn(3)], nm), "thr_" + nm, ""})
	}
	out = append(out,
		sharedStmt{name("minmax"), fmt.Sprintf(`SELECT bd2.loc AS loc, min(bd2.a) AS lo, max(bd2.a) AS hi, count(bd2.b) AS nb, count(*) AS n
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(%d) AS bd2
			WHERE bd.loc = bd2.loc AND bd2.a >= 2 GROUP BY bd2.loc`, lengths[rng.Intn(3)]), "", ""},
		sharedStmt{name("flat"), fmt.Sprintf(`SELECT bd.loc AS loc, sum(w.a) AS s, count(*) AS n
			FROM bus.std:lastevent() AS bd, bus.win:length(%d) AS w
			WHERE bd.loc = w.loc GROUP BY bd.loc`, lengths[rng.Intn(2)]), "", ""},
		sharedStmt{name("cross"), `SELECT bd.loc AS loc, avg(x.a) AS m, count(*) AS n
			FROM bus.std:lastevent() AS bd, aux.std:groupwin(loc).win:length(10) AS x
			WHERE bd.loc = x.loc GROUP BY bd.loc`, "", ""},
		sharedStmt{name("pair"), fmt.Sprintf(`SELECT g.loc AS loc, g.hour AS hour, sum(g.a) AS s
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(%s).win:length(10) AS g
			WHERE bd.hour = g.hour AND bd.loc = g.loc GROUP BY g.loc, g.hour`,
			[]string{"loc, hour", "hour, loc"}[rng.Intn(2)]), "", ""},
		sharedStmt{name("grouped"), fmt.Sprintf(`SELECT w.loc AS loc, sum(w.a) AS s, count(*) AS n
			FROM bus.std:groupwin(loc).win:length(%d) AS w GROUP BY w.loc`, lengths[rng.Intn(2)]), "", ""},
		sharedStmt{name("selfjoin"), `SELECT l.loc AS loc, count(*) AS n, sum(r.a) AS y
			FROM bus.win:length(10) AS l, bus.std:groupwin(loc).win:length(10) AS r
			WHERE l.loc = r.loc GROUP BY l.loc`, "", ""},
		// When c turns non-numeric the plan breaks at x, with y — which
		// other statements may already have moved — still to come.
		sharedStmt{name("three"), `SELECT bd.loc AS loc, avg(x.c) AS m, count(*) AS n
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(10) AS x, bus.win:length(10) AS y
			WHERE bd.loc = x.loc AND bd.loc = y.loc GROUP BY bd.loc`, "", ""},
		// No equi conjunct, so no join index: recompute reads r's window
		// itself.
		sharedStmt{name("selfloop"), `SELECT count(*) AS n, sum(r.a) AS y
			FROM bus.win:length(1) AS l, bus.win:length(10) AS r WHERE l.a > r.a`, "", ""},
		sharedStmt{name("rows"), `SELECT w.loc AS loc, w.a AS a FROM bus.win:length(1) AS w`, "", ""},
	)
	for i := range out {
		out[i].owned = []string{"", "loc", "loc2"}[rng.Intn(3)]
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func sharedFeed(rng *rand.Rand, stmts []sharedStmt, n int) (thresholds, feed []diffEvent) {
	for _, s := range stmts {
		if s.thr == "" {
			continue
		}
		for loc := 0; loc < 4; loc++ {
			for h := 0; h < 2; h++ {
				thresholds = append(thresholds, diffEvent{s.thr, map[string]Value{
					"location": fmt.Sprintf("L%d", loc), "hour": float64(h), "value": float64(rng.Intn(5)),
				}})
			}
		}
	}
	for i := 0; i < n; i++ {
		f := map[string]Value{
			"loc": fmt.Sprintf("L%d", rng.Intn(4)), "loc2": fmt.Sprintf("L%d", rng.Intn(2)),
			"hour": float64(rng.Intn(2)), "a": float64(rng.Intn(9)), "c": float64(rng.Intn(9)),
		}
		if rng.Intn(10) < 7 {
			f["b"] = float64(rng.Intn(5))
		}
		// A non-numeric aggregate argument, late enough that the plans it
		// breaks have state to lose.
		if i > n/3 && rng.Intn(60) == 0 {
			f["c"] = "oops"
		}
		stream := "bus"
		if rng.Intn(5) == 0 {
			stream = "aux"
		}
		feed = append(feed, diffEvent{stream, f})
	}
	return thresholds, feed
}

func TestDifferentialSharedViews(t *testing.T) {
	var fired, shared, broke int
	var skipped uint64
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		stmts := sharedStatements(rng)
		thresholds, feed := sharedFeed(rng, stmts, 600)
		// Mid-feed one statement is removed and added again — the shape of
		// InstalledRule.Refresh — beside views the others have populated.
		refreshAt, refreshed := len(feed)/2, stmts[rng.Intn(len(stmts))]

		together := newSharedRig()
		alone := make(map[string]*sharedRig, len(stmts))
		for _, s := range stmts {
			together.add(t, s, thresholds)
			alone[s.name] = newSharedRig()
			alone[s.name].add(t, s, thresholds)
		}
		if together.eng.viewCount < together.eng.viewSubs {
			shared++
		}
		for i, ev := range feed {
			if i == refreshAt {
				for _, rig := range []*sharedRig{together, alone[refreshed.name]} {
					if !rig.eng.RemoveStatement(refreshed.name) {
						t.Fatalf("seed %d: remove %s", seed, refreshed.name)
					}
					rig.add(t, refreshed, thresholds)
				}
			}
			errTogether := together.eng.SendEvent(ev.stream, ev.fields)
			var errAlone error
			for _, s := range stmts {
				if err := alone[s.name].eng.SendEvent(ev.stream, ev.fields); err != nil && errAlone == nil {
					errAlone = err
				}
			}
			if (errTogether == nil) != (errAlone == nil) {
				t.Fatalf("seed %d event %d: error mismatch: together=%v alone=%v", seed, i, errTogether, errAlone)
			}
			for _, s := range stmts {
				a, b := together.outs[s.name], alone[s.name].outs[s.name]
				if len(a) != len(b) || (len(a) > 0 && a[len(a)-1] != b[len(b)-1]) {
					t.Fatalf("seed %d event %d (%s %v): %s diverged\n together (%d batches): %v\n alone (%d batches): %v\n%s",
						seed, i, ev.stream, ev.fields, s.name, len(a), last(a), len(b), last(b), s.src)
				}
			}
		}
		for _, s := range stmts {
			a, _ := together.eng.Statement(s.name)
			b, _ := alone[s.name].eng.Statement(s.name)
			if a.IncrementalStrategy() != b.IncrementalStrategy() {
				t.Fatalf("seed %d: %s plan %q together, %q alone", seed, s.name, a.IncrementalStrategy(), b.IncrementalStrategy())
			}
			if a.Metrics().Errors != b.Metrics().Errors {
				t.Fatalf("seed %d: %s errors %d together, %d alone", seed, s.name, a.Metrics().Errors, b.Metrics().Errors)
			}
			if fmt.Sprint(a.WindowSizes()) != fmt.Sprint(b.WindowSizes()) {
				t.Fatalf("seed %d: %s windows %v together, %v alone", seed, s.name, a.WindowSizes(), b.WindowSizes())
			}
			if a.IncrementalStrategy() == "broken" {
				broke++
			}
			fired += len(together.outs[s.name])
		}
		skipped += together.eng.eventsUnowned
	}
	if fired == 0 || shared == 0 || broke == 0 || skipped == 0 {
		t.Fatalf("the scenarios exercise too little: %d batches, %d engines with a shared view, %d broken plans, %d unowned turns",
			fired, shared, broke, skipped)
	}
}

func last(batches []string) string {
	if len(batches) == 0 {
		return "(none)"
	}
	return batches[len(batches)-1]
}

// TestViewJoiningRule pins who shares a window: FROM items of different
// statements with one stream and view chain, as long as the view has not
// received an event; never two items of one statement; never a statement
// registered beside a populated view. A statement that reads one stream
// through two items shares each of them like any other.
func TestViewJoiningRule(t *testing.T) {
	eng := New()
	add := func(name, src string) *Statement {
		t.Helper()
		st, err := eng.AddStatement(name, src)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	rule := func(attr string) string {
		return fmt.Sprintf(`SELECT bd2.loc AS loc, avg(bd2.%s) AS m
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(3) AS bd2
			WHERE bd.loc = bd2.loc GROUP BY bd2.loc`, attr)
	}
	a, b := add("a", rule("x")), add("b", rule("y"))
	if a.items[0].view != b.items[0].view || a.items[1].view != b.items[1].view {
		t.Fatal("two statements registered before any event must share both views")
	}
	if a.items[0].view == a.items[1].view {
		t.Fatal("different view chains resolved to one view")
	}
	twice := add("twice", `SELECT count(*) AS n FROM bus.std:lastevent() AS p, bus.std:lastevent() AS q`)
	if twice.items[0].view == twice.items[1].view {
		t.Fatal("two items of one statement share a view")
	}
	selfjoin := add("selfjoin", `SELECT l.loc AS loc, count(*) AS n
		FROM bus.std:lastevent() AS l, bus.std:groupwin(loc).win:length(3) AS r
		WHERE l.x > r.x GROUP BY l.loc`)
	if selfjoin.IncrementalStrategy() != "" {
		t.Fatalf("precondition: selfjoin plan = %q, want recompute", selfjoin.IncrementalStrategy())
	}
	if selfjoin.items[0].view != twice.items[1].view || selfjoin.items[1].view != a.items[1].view {
		t.Fatal("a statement reading one stream twice must share both views")
	}

	send(t, eng, "bus", map[string]Value{"loc": "L1", "x": 1.0, "y": 2.0})
	late := add("late", rule("x"))
	if late.items[0].view == a.items[0].view || late.items[1].view == a.items[1].view {
		t.Fatal("a statement registered beside a populated view must get a fresh one")
	}
	if got := late.WindowSizes()["bd2"]; got != 0 {
		t.Fatalf("late statement starts with %d events in its window", got)
	}

	reg := telemetry.NewRegistry()
	eng.Collect(reg)
	snap := reg.Gather()
	// a and b: 2 views between them; twice: one of those and 1 of its own;
	// selfjoin: twice's own and a's bd2; late: 2 — 5 views under 10 FROM
	// items.
	for name, want := range map[string]float64{"cep.views": 5, "cep.view_subscriptions": 10} {
		if m, ok := snap.Get(name); !ok || m.Value != want {
			t.Fatalf("%s = %+v (ok=%v), want %v", name, m, ok, want)
		}
	}
	for _, name := range []string{"a", "b", "twice", "selfjoin", "late"} {
		eng.RemoveStatement(name)
	}
	if eng.viewCount != 0 || eng.viewSubs != 0 || len(eng.views) != 0 {
		t.Fatalf("views left after the last statement went: %d views, %d subscriptions, %d registered",
			eng.viewCount, eng.viewSubs, len(eng.views))
	}
}

// TestRemovedStatementSeriesAreZeroed: the stmt.<name>.* series of a removed
// statement must not stay at their last counts.
func TestRemovedStatementSeriesAreZeroed(t *testing.T) {
	eng := New()
	src := `SELECT avg(w.x) AS a FROM s.win:length(5) AS w`
	if _, err := eng.AddStatement("r", src); err != nil {
		t.Fatal(err)
	}
	send(t, eng, "s", map[string]Value{"x": 1.0})
	reg := telemetry.NewRegistry()
	eng.Collect(reg)
	if m, _ := reg.Gather().Get("cep.stmt.r.events_in"); m.Value != 1 {
		t.Fatalf("events_in = %v, want 1", m.Value)
	}
	eng.RemoveStatement("r")
	eng.Collect(reg)
	for _, series := range []string{"events_in", "evaluations", "incremental_evals"} {
		if m, _ := reg.Gather().Get("cep.stmt.r." + series); m.Value != 0 {
			t.Fatalf("%s of a removed statement = %v, want 0", series, m.Value)
		}
	}
	// Re-added under the same name (InstalledRule.Refresh): the series are
	// the new statement's.
	eng.RemoveStatement("r")
	if _, err := eng.AddStatement("r", src); err != nil {
		t.Fatal(err)
	}
	send(t, eng, "s", map[string]Value{"x": 1.0})
	send(t, eng, "s", map[string]Value{"x": 2.0})
	eng.Collect(reg)
	if m, _ := reg.Gather().Get("cep.stmt.r.events_in"); m.Value != 2 {
		t.Fatalf("events_in after re-add = %v, want 2", m.Value)
	}
}

// TestRetractionDoesNotReadEvictedEvent: a key-aligned Listing-1 item
// retracts from the value ring its group keeps, not from the event its
// window evicts. Every retained event but the newest has its aggregate
// argument overwritten with a string; were eviction to evaluate the
// argument on the evicted event, the plan would break on "non-numeric".
func TestRetractionDoesNotReadEvictedEvent(t *testing.T) {
	src := `SELECT bd2.loc AS loc, avg(bd2.a) AS cur, count(*) AS n
		FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(3) AS bd2
		WHERE bd.loc = bd2.loc GROUP BY bd2.loc`
	build := func() (*Engine, *Statement, *[]string) {
		eng := New()
		st, err := eng.AddStatement("r", src)
		if err != nil {
			t.Fatal(err)
		}
		var outs []string
		st.AddListener(func(_ *Statement, batch []Output) {
			for _, o := range batch {
				outs = append(outs, canonFields(o.Fields))
			}
		})
		return eng, st, &outs
	}
	poisoned, st, got := build()
	twin, _, want := build()
	feed := func(i int) {
		f := map[string]Value{"loc": fmt.Sprintf("L%d", i%2), "a": float64(i * i % 17)}
		send(t, poisoned, "bus", f)
		send(t, twin, "bus", f)
	}
	for i := 0; i < 6; i++ {
		feed(i)
	}
	if st.IncrementalStrategy() != "trigger" || st.inc.items[1].gw == nil {
		t.Fatalf("precondition: plan %q, key-aligned %v", st.IncrementalStrategy(), st.inc.items[1].gw != nil)
	}
	newest := st.items[0].view.win.(*lastEventWin).ev
	slot := st.items[1].schema.slot["a"]
	retained := st.items[1].view.win.contents()
	if len(retained) != 6 {
		t.Fatalf("retained %d events, want 6", len(retained))
	}
	for _, ev := range retained {
		if ev != newest {
			ev.slots[slot] = "poison"
		}
	}
	for i := 6; i < 20; i++ {
		feed(i)
	}
	if got := st.IncrementalStrategy(); got != "trigger" {
		t.Fatalf("plan = %q after evicting poisoned events, want trigger", got)
	}
	if len(*got) != 20 || fmt.Sprint(*got) != fmt.Sprint(*want) {
		t.Fatalf("outputs diverged from the unpoisoned twin:\n got  %v\n want %v", *got, *want)
	}
}
