package cep

import (
	"fmt"
	"math/rand"
	"testing"

	"trafficcep/internal/telemetry"
)

// TestOwnedStatements pins the owned-key restriction: Own reports the keys it
// added; a restricted statement takes a stream's event only when the event's
// field holds an owned key, and every other stream's events as before; views
// are shared only under one restriction; a skipped turn counts in
// <engine>.events_unowned and not in stmt.<name>.events_in; Disown reports
// what is left, and the restricted statements forget what they windowed of
// a disowned key; Owned is a copy.
func TestOwnedStatements(t *testing.T) {
	eng := New()
	if got := eng.Own("bus", "loc", "L1", "L2", "L1"); fmt.Sprint(got) != "[L1 L2]" {
		t.Fatalf("Own added %v, want [L1 L2]", got)
	}
	if got := eng.Own("bus", "loc", "L2", "L3"); fmt.Sprint(got) != "[L3]" {
		t.Fatalf("Own added %v, want [L3]", got)
	}
	ruleOn := func(field, attr string) string {
		return fmt.Sprintf(`SELECT bd2.%[1]s AS loc, avg(bd2.%[2]s) AS m
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(%[1]s).win:length(3) AS bd2
			WHERE bd.%[1]s = bd2.%[1]s GROUP BY bd2.%[1]s`, field, attr)
	}
	rule := func(attr string) string { return ruleOn("loc", attr) }
	add := func(name, src, field string) *Statement {
		t.Helper()
		add := eng.AddStatement
		if field != "" {
			add = func(name, src string) (*Statement, error) { return eng.AddOwnedStatement(name, src, "bus", field) }
		}
		st, err := add(name, src)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := add("a", rule("x"), "loc"), add("b", rule("y"), "loc")
	free, other := add("free", rule("x"), ""), add("other", ruleOn("zone", "x"), "zone")
	add("aux", `SELECT count(*) AS n FROM aux.std:lastevent() AS a, aux.std:groupwin(loc).win:length(5) AS w WHERE a.loc = w.loc`, "loc")
	if a.items[0].view != b.items[0].view || a.items[1].view != b.items[1].view {
		t.Fatal("two statements restricted to one owned-key set must share their views")
	}
	for _, st := range []*Statement{free, other} {
		if st.items[0].view == a.items[0].view || st.items[1].view == a.items[1].view {
			t.Fatalf("%s shares a view with a statement under another restriction", st.Name)
		}
	}

	send(t, eng, "bus", map[string]Value{"loc": "L1", "x": 1.0, "y": 2.0}) // owned
	send(t, eng, "bus", map[string]Value{"loc": "L9", "x": 1.0, "y": 2.0}) // not owned
	send(t, eng, "aux", map[string]Value{"loc": "L9"})                     // not a bus event
	if got := a.WindowSizes()["bd2"]; got != 1 {
		t.Fatalf("a windowed %d events, want the one it owns", got)
	}
	if eng.Disown("bus", "loc", "L1", "L9") != 2 {
		t.Fatal("Disown must leave L2 and L3")
	}
	send(t, eng, "bus", map[string]Value{"loc": "L1", "x": 1.0, "y": 2.0}) // no longer owned
	owned := eng.Owned("bus", "loc")
	owned["L1"] = true
	if fmt.Sprint(eng.Owned("bus", "loc")) != "map[L2:true L3:true]" {
		t.Fatalf("Owned = %v after writing to a copy", eng.Owned("bus", "loc"))
	}

	reg := telemetry.NewRegistry()
	eng.Collect(reg)
	snap := reg.Gather()
	// Of the three bus events a and b took the first only, free all three
	// and other none (its field is missing): 2+2+0+3 skipped turns. aux
	// reads no bus item and took its aux event.
	for name, want := range map[string]float64{
		"cep.stmt.a.events_in": 1, "cep.stmt.b.events_in": 1, "cep.stmt.free.events_in": 3,
		"cep.stmt.other.events_in": 0, "cep.stmt.aux.events_in": 1, "cep.events_unowned": 7,
	} {
		if m, ok := snap.Get(name); !ok || m.Value != want {
			t.Fatalf("%s = %+v (ok=%v), want %v", name, m, ok, want)
		}
	}
	if got, free := a.WindowSizes()["bd2"], free.WindowSizes()["bd2"]; got != 0 || free != 3 {
		t.Fatalf("after Disown a windows %d events and free %d, want 0 (L1 is forgotten) and 3", got, free)
	}
}

// TestDifferentialOwnedRegain: a key an engine disowns and gains again
// starts empty, as a first gain does. An engine owns some of the feed's loc
// keys, disowns them all mid-feed (in two calls) and regains them later;
// from the regain on, each statement restricted to them — every restricted
// shape the engine runs: Listing-1 rules over window 10 and a thresholds
// table, a filtered min/max over one window, a rule over two windows of one
// location, a rule over a table alone and one over the trigger alone —
// must emit what the same
// statement emits in a fresh engine owning those keys and fed only the
// events after the regain, batch by batch, and end with the same window
// sizes and error count. Unrestricted copies of the statements beside them
// keep their windows: they must emit what they emit in an engine with no
// owned keys fed the whole feed. The feed sends runs of one event at one
// event time.
func TestDifferentialOwnedRegain(t *testing.T) {
	var fired int
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		var stmts []sharedStmt
		for i := 0; i < 3; i++ {
			nm := fmt.Sprintf("rule%d", i)
			attr := []string{"a", "b", "c"}[rng.Intn(3)]
			stmts = append(stmts, sharedStmt{nm, fmt.Sprintf(`SELECT bd2.loc AS location, avg(bd2.%[1]s) AS observed, avg(th.value) AS threshold
				FROM bus.std:lastevent() AS bd UNIDIRECTIONAL,
				     bus.std:groupwin(loc).win:length(10) AS bd2,
				     thr_%[2]s.win:keepall() AS th
				WHERE bd.hour = th.hour AND bd.loc = th.location AND bd.loc = bd2.loc
				GROUP BY bd2.loc
				HAVING avg(bd2.%[1]s) > avg(th.value)`, attr, nm), "thr_" + nm, "loc"})
		}
		stmts = append(stmts,
			sharedStmt{"minmax", `SELECT bd2.loc AS loc, min(bd2.a) AS lo, max(bd2.a) AS hi, count(bd2.b) AS nb, count(*) AS n
				FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(10) AS bd2
				WHERE bd.loc = bd2.loc AND bd2.a >= 2 GROUP BY bd2.loc`, "", "loc"},
			sharedStmt{"two", `SELECT bd.loc AS loc, sum(x.c) AS s, count(*) AS n, max(y.a) AS hi
				FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(10) AS x, bus.std:groupwin(loc).win:length(3) AS y
				WHERE bd.loc = x.loc AND bd.loc = y.loc GROUP BY bd.loc`, "", "loc"},
			sharedStmt{"table", `SELECT bd.loc AS loc, avg(th.value) AS v, count(*) AS n
				FROM bus.std:lastevent() AS bd, thr_rule0 AS th
				WHERE bd.hour = th.hour AND bd.loc = th.location AND bd.a > 4 GROUP BY bd.loc`, "thr_rule0", "loc"},
			sharedStmt{"rows", `SELECT bd.loc AS loc, bd.a AS a, count(*) AS n FROM bus.std:lastevent() AS bd`, "", "loc"},
		)
		tables, feed := sharedFeed(rng, stmts, 600)
		var keys []string
		for _, k := range rng.Perm(4)[:1+rng.Intn(4)] {
			keys = append(keys, fmt.Sprintf("L%d", k))
		}
		disownAt := len(feed)/4 + rng.Intn(len(feed)/4)
		regainAt := disownAt + 1 + rng.Intn(len(feed)/4)

		rig := func(owned []string, restricted, free bool) *sharedRig {
			r := &sharedRig{eng: New(), outs: make(map[string][]string)}
			r.eng.Own("bus", "loc", owned...)
			for _, s := range stmts {
				if restricted {
					r.add(t, s, tables)
				}
				if free {
					r.add(t, sharedStmt{"free_" + s.name, s.src, s.thr, ""}, tables)
				}
			}
			return r
		}
		product, unowned := rig(keys, true, true), rig(nil, false, true)
		var fresh *sharedRig
		mark := make(map[string]int)
		errsAt := make(map[string]uint64)
		for i, ev := range feed {
			switch i {
			case disownAt:
				product.eng.Disown("bus", "loc", keys[:len(keys)/2]...)
				if left := product.eng.Disown("bus", "loc", keys[len(keys)/2:]...); left != 0 {
					t.Fatalf("seed %d: %d keys left after disowning them all", seed, left)
				}
			case regainAt:
				product.eng.Own("bus", "loc", keys...)
				fresh = rig(keys, true, false)
				for _, s := range stmts {
					mark[s.name] = len(product.outs[s.name])
					st, _ := product.eng.Statement(s.name)
					errsAt[s.name] = st.Metrics().Errors
				}
			}
			product.send(t, i, ev)
			unowned.send(t, i, ev)
			if fresh != nil {
				fresh.send(t, i, ev)
			}
			for _, s := range stmts {
				free := "free_" + s.name
				if a, b := product.outs[free], unowned.outs[free]; !sameTail(a, b) {
					t.Fatalf("seed %d event %d: unrestricted %s diverged\n product: %v\n unowned: %v", seed, i, s.name, last(a), last(b))
				}
				if fresh == nil {
					continue
				}
				a, b := product.outs[s.name][mark[s.name]:], fresh.outs[s.name]
				if !sameTail(a, b) {
					t.Fatalf("seed %d event %d (keys %v, disowned at %d, regained at %d): %s diverged from a fresh engine\n regained (%d batches): %v\n fresh (%d batches): %v",
						seed, i, keys, disownAt, regainAt, s.name, len(a), last(a), len(b), last(b))
				}
			}
		}
		for _, s := range stmts {
			a, _ := product.eng.Statement(s.name)
			b, _ := fresh.eng.Statement(s.name)
			if fmt.Sprint(a.WindowSizes()) != fmt.Sprint(b.WindowSizes()) {
				t.Fatalf("seed %d: %s windows %v after the regain, %v fresh", seed, s.name, a.WindowSizes(), b.WindowSizes())
			}
			if a.Metrics().Errors-errsAt[s.name] != b.Metrics().Errors {
				t.Fatalf("seed %d: %s erred %d times after the regain, %d fresh", seed, s.name, a.Metrics().Errors-errsAt[s.name], b.Metrics().Errors)
			}
			fired += len(fresh.outs[s.name])
		}
	}
	if fired == 0 {
		t.Fatal("no restricted statement fired after a regain")
	}
}

// sameTail reports whether two batch records checked after every event still
// agree: as many batches, the latest one equal.
func sameTail(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || a[len(a)-1] == b[len(b)-1])
}
