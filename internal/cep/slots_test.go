package cep

import (
	"reflect"
	"strings"
	"testing"
)

// listing1Shape is the shape of the shipped rules: a lastevent trigger, a
// grouped length window over the same stream, an equi-join between them.
const listing1Shape = `SELECT bd2.loc AS location, avg(bd2.delay) AS observed
FROM bus.std:lastevent() AS bd, bus.std:groupwin(loc).win:length(3) AS bd2
WHERE bd.loc = bd2.loc GROUP BY bd2.loc HAVING avg(bd2.delay) > 1`

// TestSchemaGrowsWithLaterStatement registers a second statement, over a
// field the first never mentions, after events were already bound under the
// shorter schema. The first statement's windows hold those short events and
// evict them later — through its own, still valid slot indexes — while the
// second statement only ever meets events bound after its registration.
func TestSchemaGrowsWithLaterStatement(t *testing.T) {
	e := New()
	first, err := e.AddStatement("first", listing1Shape)
	if err != nil {
		t.Fatal(err)
	}
	firstOut := collect(first)
	bus := func(loc string, delay, speed float64) {
		t.Helper()
		send(t, e, "bus", map[string]Value{"loc": loc, "delay": delay, "speed": speed})
	}
	for i := 0; i < 3; i++ {
		bus("a", 5, 30)
	}
	before := len(e.schemas["bus"].names)
	if before != 2 {
		t.Fatalf("schema before = %v, want loc and delay", e.schemas["bus"].names)
	}

	second, err := e.AddStatement("second", `SELECT avg(b.speed) AS v FROM bus.win:length(2) AS b`)
	if err != nil {
		t.Fatal(err)
	}
	secondOut := collect(second)
	if got := e.schemas["bus"].names; len(got) != before+1 || got[before] != "speed" {
		t.Fatalf("schema after = %v, want speed appended", got)
	}

	// Three more events evict every short event from first's window.
	for i := 0; i < 3; i++ {
		bus("a", 0, 10)
	}
	last := (*firstOut)[len(*firstOut)-1]
	if n := len(*firstOut); n != 5 || last.Fields["observed"] != 5.0/3 {
		t.Fatalf("first fired %d times, last %v; want 5 firings ending at avg 5/3", n, last.Fields)
	}
	if n := len(*secondOut); n != 3 || (*secondOut)[2].Fields["v"] != 10.0 {
		t.Fatalf("second outputs = %v", *secondOut)
	}
	// Re-registering fields the schema already has adds no slot.
	if _, err := e.AddStatement("third", listing1Shape); err != nil {
		t.Fatal(err)
	}
	if got := len(e.schemas["bus"].names); got != before+1 {
		t.Fatalf("schema grew to %d slots on a repeat registration", got)
	}
}

// TestMissingFieldBindsNil: a field the event lacks reads NULL through a
// qualified reference — in a projection, an aggregate argument (ignored, as
// SQL does) and a group key.
func TestMissingFieldBindsNil(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT x.k AS k, x.v AS v, count(x.v) AS n, count(*) AS rows
		FROM s.std:groupwin(k).win:keepall() AS x GROUP BY x.k`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "s", map[string]Value{"other": 1.0})
	send(t, e, "s", map[string]Value{"v": 2.0})
	o := (*got)[len(*got)-1]
	want := map[string]Value{"k": nil, "v": 2.0, "n": 1.0, "rows": 2.0}
	if !reflect.DeepEqual(o.Fields, want) {
		t.Fatalf("fields = %v, want %v", o.Fields, want)
	}
}

// TestUnqualifiedRefStillTellsAbsentFromNull: an unqualified reference
// resolves to the first bound event that HAS the field, and reports the
// same "not found" error as before when none has.
func TestUnqualifiedRefStillTellsAbsentFromNull(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", `SELECT v AS v FROM a.std:lastevent() AS x, b.std:lastevent() AS y`)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	send(t, e, "a", map[string]Value{"id": 1.0})
	err = e.SendEvent("b", map[string]Value{"id": 2.0})
	const wantErr = `cep: statement "r": cep: field "v" not found in any bound stream`
	if err == nil || err.Error() != wantErr {
		t.Fatalf("err = %v, want %s", err, wantErr)
	}
	// Present but NULL on the first item wins over a value on the second.
	send(t, e, "a", map[string]Value{"v": nil})
	send(t, e, "b", map[string]Value{"v": 7.0})
	if o := (*got)[len(*got)-1]; o.Fields["v"] != nil {
		t.Fatalf("v = %v, want NULL from the first item", o.Fields["v"])
	}
	// Absent on the first item falls through to the second.
	send(t, e, "a", map[string]Value{"id": 3.0})
	if o := (*got)[len(*got)-1]; o.Fields["v"] != 7.0 {
		t.Fatalf("v = %v, want 7 from the second item", o.Fields["v"])
	}
}

// TestOutputRowCarriesUnreferencedFields: Output.Row events expose the
// caller's map itself, so a listener reads fields no statement mentions
// (the benchmark's listener reads vehicleId and ts this way).
func TestOutputRowCarriesUnreferencedFields(t *testing.T) {
	e := New()
	st, err := e.AddStatement("r", listing1Shape)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(st)
	sent := map[string]Value{"loc": "a", "delay": 9.0, "vehicleId": "V7", "ts": 1357113600.0}
	send(t, e, "bus", sent)
	if len(*got) != 1 {
		t.Fatalf("outputs = %v", *got)
	}
	bd := (*got)[0].Row["bd"]
	if bd == nil || bd.Fields["vehicleId"] != "V7" || bd.Fields["ts"] != 1357113600.0 {
		t.Fatalf("Row[bd] = %v", bd)
	}
	if reflect.ValueOf(bd.Fields).Pointer() != reflect.ValueOf(sent).Pointer() {
		t.Fatal("the event's Fields is a copy of the map that was sent")
	}
	if names := e.schemas["bus"].names; strings.Join(names, ",") != "loc,delay" {
		t.Fatalf("schema = %v: only referenced fields take a slot", names)
	}
}
