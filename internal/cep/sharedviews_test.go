package cep

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"trafficcep/internal/telemetry"
)

// Shared-view differential: the same statements are run (a) together in one
// engine, where FROM items that coincide resolve to one engine-owned view,
// and (b) each alone in an engine of its own, where nothing can be shared.
// One feed drives both; every statement must emit the same output sequence
// — fields and representative rows, batch by batch, in order — and raise
// errors on the same events. No switch selects a path: (b) is the engine as
// it is with one statement in it. Both engines own the same keys, and
// statements restricted to them (AddOwnedStatement) may share a view only
// with statements under the same restriction. The join oracle recomputes
// every statement of (a) beside it, and each event must make each statement
// emit what the oracle emits, and fail when the oracle fails.

// sharedStmt is one statement of a shared-view scenario; thr names the
// thresholds table it joins, empty when it has none, and owned the bus field
// whose owned keys it is restricted to, empty when it is not.
type sharedStmt struct {
	name, src, thr, owned string
}

// sharedRig runs a set of statements in one engine and records, per
// statement, every batch it emitted; with check set, the oracle follows
// the engine's every statement and event.
type sharedRig struct {
	eng   *Engine
	outs  map[string][]string
	check *oracleRig
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

// add registers a statement, and first the thresholds table it joins.
func (r *sharedRig) add(t *testing.T, s sharedStmt, tables map[string]*Table) {
	t.Helper()
	if s.thr != "" {
		if err := r.eng.RegisterTable(s.thr, tables[s.thr]); err != nil {
			t.Fatal(err)
		}
	}
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
	if r.check != nil {
		r.check.watch(st)
	}
	st.AddListener(func(st *Statement, outs []Output) {
		batch := make([]string, len(outs))
		for i, o := range outs {
			batch[i] = canonOutput(o)
		}
		r.outs[st.Name] = append(r.outs[st.Name], strings.Join(batch, " | "))
	})
}

// send delivers the i-th event of a feed at its event time, through the
// oracle check if set.
func (r *sharedRig) send(t *testing.T, i int, ev diffEvent) error {
	if r.check != nil {
		return r.check.sendAt(t, i, ev.ts, ev.stream, ev.fields)
	}
	return r.eng.SendEventAt(ev.stream, ev.ts, ev.fields)
}

// remove deregisters a statement, from the oracle check too.
func (r *sharedRig) remove(name string) bool {
	if r.check != nil {
		r.check.ref.remove(name)
	}
	return r.eng.RemoveStatement(name)
}

// sharedStatements draws a statement set whose view specs overlap and
// differ: Listing-1 rules over three window lengths and two location
// fields, aggregating an attribute that is sometimes nil (b) or sometimes a
// string or a NaN (c, which no aggregate can fold), a filtered min/max rule
// on the same windows, a rule over two windows of one location, one over
// windows of two location fields, one over a window grouped by hour, a rule
// on another stream, and one over the trigger alone. Each is restricted at
// random to the owned loc keys, the owned loc2 keys or nothing — a rule
// with windows only to the keys of the field they are grouped on.
func sharedStatements(rng *rand.Rand) []sharedStmt {
	lengths := []int{1, 10, 100}
	var out []sharedStmt
	n := 0
	name := func(kind string) string { n++; return fmt.Sprintf("%s%d", kind, n) }
	// owned restricts a statement whose windows are all grouped on field,
	// or that has none (field "*"), at random.
	owned := func(field string) string {
		choice := []string{"", field}
		if field == "*" {
			choice = []string{"", "loc", "loc2"}
		}
		if field == "" {
			return ""
		}
		return choice[rng.Intn(len(choice))]
	}
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
			HAVING avg(bd2.%[2]s) > avg(th.value)`, loc, attr, lengths[rng.Intn(3)], nm), "thr_" + nm, owned(loc)})
	}
	out = append(out,
		sharedStmt{name("minmax"), fmt.Sprintf(`SELECT bd2.loc AS loc, min(bd2.a) AS lo, max(bd2.a) AS hi, count(bd2.b) AS nb, count(*) AS n
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(%d) AS bd2
			WHERE bd.loc = bd2.loc AND bd2.a >= 2 GROUP BY bd2.loc`, lengths[rng.Intn(3)]), "", owned("loc")},
		// When c cannot be folded x fails, with y — which other statements
		// may already have moved — still to come.
		sharedStmt{name("two"), fmt.Sprintf(`SELECT bd.loc AS loc, avg(x.c) AS m, sum(y.a) AS s, count(*) AS n
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(10) AS x, bus.std:groupwin(loc).win:length(%d) AS y
			WHERE bd.loc = x.loc AND bd.loc = y.loc AND y.a > 3 GROUP BY bd.loc`, lengths[rng.Intn(3)]), "", owned("loc")},
		sharedStmt{name("fields"), `SELECT bd.loc AS loc, count(*) AS n, sum(y.a) AS s
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(10) AS x, bus.std:groupwin(loc2).win:length(10) AS y
			WHERE bd.loc = x.loc AND bd.loc2 = y.loc2 GROUP BY bd.loc`, "", ""},
		sharedStmt{name("hourly"), fmt.Sprintf(`SELECT bd.hour AS hour, sum(w.a) AS s, count(*) AS n
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(hour).win:length(%d) AS w
			WHERE bd.hour = w.hour GROUP BY bd.hour`, lengths[rng.Intn(2)]), "", ""},
		// On aux, which a restriction to bus keys leaves alone.
		sharedStmt{name("aux"), `SELECT t.loc AS loc, avg(x.a) AS m, count(*) AS n
			FROM aux.std:lastevent() AS t, aux.std:groupwin(loc).win:length(10) AS x
			WHERE t.loc = x.loc GROUP BY t.loc`, "", owned("*")},
		sharedStmt{name("rows"), `SELECT w.loc AS loc, w.a AS a, count(*) AS n FROM bus.std:lastevent() AS w`, "", owned("*")},
	)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sharedFeed draws the thresholds table of every statement that joins one,
// and n events, each sent one to three times at one event time.
func sharedFeed(rng *rand.Rand, stmts []sharedStmt, n int) (map[string]*Table, []diffEvent) {
	tables := make(map[string]*Table)
	for _, s := range stmts {
		if s.thr == "" {
			continue
		}
		var rows []map[string]Value
		for loc := 0; loc < 4; loc++ {
			for h := 0; h < 2; h++ {
				rows = append(rows, map[string]Value{
					"location": fmt.Sprintf("L%d", loc), "hour": float64(h), "value": float64(rng.Intn(5)),
				})
			}
		}
		t, err := NewTable([]string{"location", "hour", "value"}, 2, rows)
		if err != nil {
			panic(err)
		}
		tables[s.thr] = t
	}
	var feed []diffEvent
	for i := 0; i < n; i++ {
		f := map[string]Value{
			"loc": fmt.Sprintf("L%d", rng.Intn(4)), "loc2": fmt.Sprintf("L%d", rng.Intn(2)),
			"hour": float64(rng.Intn(2)), "a": float64(rng.Intn(9)), "c": float64(rng.Intn(9)),
		}
		if rng.Intn(10) < 7 {
			f["b"] = float64(rng.Intn(5))
		}
		// An aggregate argument that cannot be folded, late enough that
		// the keys it fails have state.
		if i > n/3 && rng.Intn(60) == 0 {
			f["c"] = []Value{"oops", math.NaN()}[rng.Intn(2)]
		}
		stream := "bus"
		if rng.Intn(5) == 0 {
			stream = "aux"
		}
		feed = append(feed, diffEvent{stream: stream, fields: f})
	}
	return tables, duplicateTimestamps(rng, feed)
}

func TestDifferentialSharedViews(t *testing.T) {
	var fired, shared, failed int
	var skipped uint64
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		stmts := sharedStatements(rng)
		tables, feed := sharedFeed(rng, stmts, 600)
		// Mid-feed one statement is removed and added again — the shape of
		// InstalledRule.Refresh — beside views the others have populated.
		refreshAt, refreshed := len(feed)/2, stmts[rng.Intn(len(stmts))]

		together := newSharedRig()
		together.check = &oracleRig{eng: together.eng, ref: newOracle(together.eng), batch: map[string]string{}}
		alone := make(map[string]*sharedRig, len(stmts))
		for _, s := range stmts {
			together.add(t, s, tables)
			alone[s.name] = newSharedRig()
			alone[s.name].add(t, s, tables)
		}
		if together.eng.viewCount < together.eng.viewSubs {
			shared++
		}
		for i, ev := range feed {
			if i == refreshAt {
				for _, rig := range []*sharedRig{together, alone[refreshed.name]} {
					if !rig.remove(refreshed.name) {
						t.Fatalf("seed %d: remove %s", seed, refreshed.name)
					}
					rig.add(t, refreshed, tables)
				}
			}
			errTogether := together.send(t, i, ev)
			var errAlone error
			for _, s := range stmts {
				if err := alone[s.name].send(t, i, ev); err != nil && errAlone == nil {
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
			if a.Metrics().Errors != b.Metrics().Errors {
				t.Fatalf("seed %d: %s errors %d together, %d alone", seed, s.name, a.Metrics().Errors, b.Metrics().Errors)
			}
			if fmt.Sprint(a.WindowSizes()) != fmt.Sprint(b.WindowSizes()) {
				t.Fatalf("seed %d: %s windows %v together, %v alone", seed, s.name, a.WindowSizes(), b.WindowSizes())
			}
			if a.Metrics().Errors > 0 {
				failed++
			}
			fired += len(together.outs[s.name])
		}
		skipped += together.eng.eventsUnowned
	}
	if fired == 0 || shared == 0 || failed == 0 || skipped == 0 {
		t.Fatalf("the scenarios exercise too little: %d batches, %d engines with a shared view, %d statements that failed, %d unowned turns",
			fired, shared, failed, skipped)
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
	twice := add("twice", `SELECT count(*) AS n FROM bus.std:lastevent() AS p,
		bus.std:groupwin(loc).win:length(3) AS q, bus.std:groupwin(loc).win:length(3) AS r
		WHERE p.loc = q.loc AND p.loc = r.loc`)
	if twice.items[1].view == twice.items[2].view {
		t.Fatal("two items of one statement share a view")
	}
	selfjoin := add("selfjoin", `SELECT l.loc AS loc, count(*) AS n
		FROM bus.std:lastevent() AS l, bus.std:groupwin(loc).win:length(3) AS r
		WHERE l.loc = r.loc GROUP BY l.loc`)
	if selfjoin.items[0].view != a.items[0].view || selfjoin.items[1].view != twice.items[2].view {
		t.Fatal("a statement must share each of its views")
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
	// a and b: 2 views between them; twice: both of those and 1 of its own;
	// selfjoin: a's bd and twice's own; late: 2 — 5 views under 11 FROM
	// items.
	for name, want := range map[string]float64{"cep.views": 5, "cep.view_subscriptions": 11} {
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
	src := `SELECT avg(w.x) AS a FROM s.std:lastevent() AS t, s.std:groupwin(k).win:length(5) AS w WHERE t.k = w.k`
	if _, err := eng.AddStatement("r", src); err != nil {
		t.Fatal(err)
	}
	send(t, eng, "s", map[string]Value{"k": "a", "x": 1.0})
	reg := telemetry.NewRegistry()
	eng.Collect(reg)
	if m, _ := reg.Gather().Get("cep.stmt.r.events_in"); m.Value != 1 {
		t.Fatalf("events_in = %v, want 1", m.Value)
	}
	eng.RemoveStatement("r")
	eng.Collect(reg)
	for _, series := range []string{"events_in", "evaluations", "firings"} {
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
	send(t, eng, "s", map[string]Value{"k": "a", "x": 1.0})
	send(t, eng, "s", map[string]Value{"k": "a", "x": 2.0})
	eng.Collect(reg)
	if m, _ := reg.Gather().Get("cep.stmt.r.events_in"); m.Value != 2 {
		t.Fatalf("events_in after re-add = %v, want 2", m.Value)
	}
}

// rowTag marks a row map: it is reachable exactly as long as the map is.
// (It holds a pointer, so the allocator never packs it with other values,
// which could keep it from being finalized.)
type rowTag struct {
	_ *int
	n int
}

// tagRow returns a tag whose finalizer closes freed.
func tagRow() (tag *rowTag, freed <-chan struct{}) {
	done := make(chan struct{})
	tag = &rowTag{}
	runtime.SetFinalizer(tag, func(*rowTag) { close(done) })
	return tag, done
}

// collected reports whether freed closed within a few collections: a
// finalizer runs on its own goroutine once a collection has found its
// object unreachable, so each round collects and then yields to it.
func collected(freed <-chan struct{}) bool {
	for range 10 {
		runtime.GC()
		runtime.Gosched()
		select {
		case <-freed:
			return true
		default:
		}
	}
	return false
}

// TestRowReleasedWhenWindowMovesOn: no window holds the rows it counts. The
// engine keeps a row only while it still reads it — a view's latest event,
// an accumulator's emit representative — so once a second event at the
// same location replaced the first there, the first row is garbage,
// although every length-10 window of the rule counts it for nine more
// events: grouped by the location, grouped by another field (the hour),
// and beside a table keyed by the trigger's hour.
func TestRowReleasedWhenWindowMovesOn(t *testing.T) {
	rules := map[string]string{
		"aligned": `SELECT bd.loc AS loc, avg(bd2.a) AS m, count(*) AS n
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(10) AS bd2
			WHERE bd.loc = bd2.loc GROUP BY bd.loc`,
		"keyed": `SELECT bd.loc AS loc, avg(w.a) AS m, max(th.v) AS v, count(*) AS n
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(10) AS w, thr AS th
			WHERE bd.loc = w.loc AND bd.hour = th.hour GROUP BY bd.loc`,
		"grouped": `SELECT bd.hour AS hour, avg(w.a) AS m, count(*) AS n
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(hour).win:length(10) AS w
			WHERE bd.hour = w.hour GROUP BY bd.hour`,
	}
	thr, err := NewTable([]string{"hour", "v"}, 1, []map[string]Value{{"hour": 7.0, "v": 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range rules {
		t.Run(name, func(t *testing.T) {
			eng := New()
			if err := eng.RegisterTable("thr", thr); err != nil {
				t.Fatal(err)
			}
			st, err := eng.AddStatement("r", src)
			if err != nil {
				t.Fatal(err)
			}
			sendTagged := func(a float64) <-chan struct{} {
				tag, freed := tagRow()
				send(t, eng, "bus", map[string]Value{"loc": "L0", "hour": 7.0, "a": a, "tag": tag})
				return freed
			}
			first, second := sendTagged(1), sendTagged(3)
			if !collected(first) {
				t.Fatal("the first row is still reachable after a second event at its location")
			}
			if collected(second) {
				t.Fatal("the latest row was collected while the engine reads it")
			}
			if n := st.WindowSizes()["bd2"] + st.WindowSizes()["w"]; n != 2 {
				t.Fatalf("the window counts %d events, want 2", n)
			}
			runtime.KeepAlive(eng)
		})
	}
}
