package cep

import (
	"fmt"
	"testing"

	"trafficcep/internal/telemetry"
)

// TestOwnedStatements pins the owned-key restriction: Own reports the keys it
// added; a restricted statement takes a stream's event only when the event's
// field holds an owned key, and every other stream's events as before; views
// are shared only under one restriction; a skipped turn counts in
// <engine>.events_unowned and not in stmt.<name>.events_in; Disown reports
// what is left and Owned is a copy.
func TestOwnedStatements(t *testing.T) {
	eng := New()
	if got := eng.Own("bus", "loc", "L1", "L2", "L1"); fmt.Sprint(got) != "[L1 L2]" {
		t.Fatalf("Own added %v, want [L1 L2]", got)
	}
	if got := eng.Own("bus", "loc", "L2", "L3"); fmt.Sprint(got) != "[L3]" {
		t.Fatalf("Own added %v, want [L3]", got)
	}
	rule := func(attr string) string {
		return fmt.Sprintf(`SELECT bd2.loc AS loc, avg(bd2.%s) AS m
			FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(3) AS bd2
			WHERE bd.loc = bd2.loc GROUP BY bd2.loc`, attr)
	}
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
	free, other := add("free", rule("x"), ""), add("other", rule("x"), "zone")
	add("aux", `SELECT count(*) AS n FROM aux.std:lastevent() AS a, aux.win:length(5) AS w`, "loc")
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
	if got := a.WindowSizes()["bd2"]; got != 1 {
		t.Fatalf("a windowed %d events, want the one it owns", got)
	}
}
