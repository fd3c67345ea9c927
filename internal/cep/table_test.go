package cep

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// tableColumns are the columns of the tables these tests register: the
// thresholds table of Listing 1 keyed by (location, hour, day), and a tag
// column a statement may join without it being a key.
var tableColumns = []string{"location", "hour", "day", "value", "tag"}

// hostileKey makes field k of f a hostile value or absent, or, as often,
// an integer typed int that must key like the float64 of the same value.
func hostileKey(rng *rand.Rand, f map[string]Value, k string) {
	if rng.Intn(4) == 0 {
		f[k] = 1
		return
	}
	setHostile(rng, f, k)
}

// randTableRows makes n rows over the bus feed's keys (randBusEvent), with
// repeated keys; a hostile table puts NaN, ±Inf, "x", NULL, absent values
// and ints in every column.
func randTableRows(rng *rand.Rand, n int, hostile bool) []map[string]Value {
	rows := make([]map[string]Value, n)
	for i := range rows {
		f := map[string]Value{
			"location": fmt.Sprintf("L%d", rng.Intn(3)), "hour": float64(rng.Intn(3)),
			"day": "wd", "value": float64(rng.Intn(5)), "tag": float64(rng.Intn(5)),
		}
		if hostile {
			for _, k := range tableColumns {
				if rng.Intn(6) == 0 {
					hostileKey(rng, f, k)
				}
			}
		}
		rows[i] = f
	}
	return rows
}

func randTable(rng *rand.Rand, hostile bool) *Table {
	t, err := NewTable(tableColumns, 3, randTableRows(rng, 6+rng.Intn(30), hostile))
	if err != nil {
		panic(err)
	}
	return t
}

// tableStatement draws a Listing-1 rule over the table "tab" — through no
// view or win:keepall(), unidirectional or not, sometimes also joining the
// non-key tag column, with a filter on the table item that a hostile value
// makes fail.
func tableStatement(rng *rand.Rand, hostile bool) string {
	where := "bd.hour = th.hour AND bd.day = th.day AND bd.loc = th.location AND bd.loc = bd2.loc"
	if rng.Intn(3) == 0 {
		where += " AND bd.b = th.tag"
	}
	if hostile {
		where += " AND th.value < 4"
	}
	uni := ""
	if rng.Intn(2) == 0 {
		uni = "UNIDIRECTIONAL"
	}
	return fmt.Sprintf(`SELECT bd.loc AS loc, avg(bd2.a) AS cur, avg(th.value) AS thr, count(*) AS n, min(th.value) AS lo, sum(th.tag) AS s
		FROM bus.std:lastevent() AS bd %s, bus.std:groupwin(loc).win:length(%d) AS bd2, tab%s AS th
		WHERE %s GROUP BY bd.loc`, uni, 1+rng.Intn(4), []string{"", ".win:keepall()"}[rng.Intn(2)], where)
}

// tableFeed is n bus events over the table's keys; a hostile feed mixes
// hostile values into loc, hour, day and the aggregated attributes.
func tableFeed(rng *rand.Rand, n int, hostile bool) []diffEvent {
	feed := make([]diffEvent, n)
	for i := range feed {
		ev := randBusEvent(rng, "bus", hostile)
		if hostile {
			for _, k := range []string{"loc", "hour", "day"} {
				if rng.Intn(8) == 0 {
					hostileKey(rng, ev.fields, k)
				}
			}
		}
		feed[i] = ev
	}
	return feed
}

// TestDifferentialTableItem holds a statement over a registered table to
// the oracle, which reads the table's rows as a keep-all window: every bus
// event must make the statement emit what the oracle emits, and fail when it
// fails, over integer and hostile feeds, unrestricted and restricted to
// owned locations whose set changes mid feed. A new table version is then
// swapped in under the statement, whose windows stay, and the oracle
// follows it.
func TestDifferentialTableItem(t *testing.T) {
	for _, hostile := range []bool{false, true} {
		for _, owned := range []bool{false, true} {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("hostile=%v/owned=%v/seed=%d", hostile, owned, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(700 + seed))
					runTableDifferential(t, rng, hostile, owned)
				})
			}
		}
	}
}

func runTableDifferential(t *testing.T, rng *rand.Rand, hostile, owned bool) {
	rows := randTableRows(rng, 6+rng.Intn(30), hostile)
	table, err := NewTable(tableColumns, 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	src := tableStatement(rng, hostile)

	rig := newOracleRig()
	if err := rig.eng.RegisterTable("tab", table); err != nil {
		t.Fatal(err)
	}
	var st *Statement
	if owned {
		rig.eng.Own("bus", "loc", "L0", "L2")
		st, err = rig.eng.AddOwnedStatement("r", src, "bus", "loc")
	} else {
		st, err = rig.eng.AddStatement("r", src)
	}
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	rig.watch(st)
	if n := st.WindowSizes()["th"]; n != len(rows) {
		t.Fatalf("table item size %d, want its %d rows", n, len(rows))
	}

	fired, failed := 0, 0
	for i, ev := range tableFeed(rng, 400, hostile) {
		if owned && i == 200 {
			rig.eng.Own("bus", "loc", "L1")
			rig.eng.Disown("bus", "loc", "L0")
		}
		if rig.send(t, i, ev.stream, ev.fields) != nil {
			failed++
		}
		if rig.batch["r"] != "" {
			fired++
		}
	}
	if fired == 0 || hostile && failed == 0 {
		t.Fatalf("fired %d times and failed %d times; the scenario exercises too little\n%s", fired, failed, src)
	}

	// A new version: the oracle reads it, and the statement's windows
	// carry over.
	if err := rig.eng.RegisterTable("tab", randTable(rng, hostile)); err != nil {
		t.Fatal(err)
	}
	for i, ev := range tableFeed(rng, 100, hostile) {
		rig.send(t, 400+i, ev.stream, ev.fields)
	}
}

// TestTableRegistration holds the rules of RegisterTable and of binding a
// FROM item to a table.
func TestTableRegistration(t *testing.T) {
	table, err := NewTable(tableColumns, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		cols []string
		keys int
	}{{tableColumns, 0}, {tableColumns, 6}, {[]string{"a", "b", "a"}, 1}} {
		if _, err := NewTable(bad.cols, bad.keys, nil); err == nil {
			t.Errorf("NewTable(%v, %d) succeeded", bad.cols, bad.keys)
		}
	}

	eng := New()
	if _, err := eng.AddStatement("stream", "SELECT count(*) AS n FROM thr.std:lastevent() AS t"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterTable("thr", table); err == nil || !strings.Contains(err.Error(), "read as a stream") {
		t.Fatalf("registering a table over a stream a statement reads: %v", err)
	}
	if err := eng.RegisterTable("tab", table); err != nil {
		t.Fatal(err)
	}
	other, _ := NewTable(tableColumns, 2, nil)
	if err := eng.RegisterTable("tab", other); err == nil {
		t.Fatal("a version with other key columns was swapped in")
	}
	for _, q := range []string{
		// hour is not joined.
		"SELECT avg(th.value) AS v FROM bus.std:lastevent() AS t, tab AS th WHERE t.loc = th.location AND t.day = th.day",
		// a view other than win:keepall().
		"SELECT avg(th.value) AS v FROM bus.std:lastevent() AS t, tab.win:length(2) AS th WHERE t.loc = th.location AND t.hour = th.hour AND t.day = th.day",
		// no such column.
		"SELECT avg(th.speed) AS v FROM bus.std:lastevent() AS t, tab AS th WHERE t.loc = th.location AND t.hour = th.hour AND t.day = th.day",
	} {
		if _, err := eng.AddStatement("bad", q); err == nil {
			t.Errorf("registered %s", q)
		}
	}
	if got := len(eng.tables["tab"].schema.names); got != len(tableColumns) {
		t.Fatalf("a refused statement grew the table's layout to %d columns", got)
	}
}

// TestTableKeysCompareAsJoinKeys: a block matches the hour and day as a
// rendered join key would — an int and a float64 of one value alike, NaN
// with NaN, -0 with 0 — and keeps rows with one key in table order.
func TestTableKeysCompareAsJoinKeys(t *testing.T) {
	rows := []map[string]Value{
		{"location": "a", "hour": 1.0, "day": "wd", "value": 1.0},
		{"location": "a", "hour": math.NaN(), "day": nil, "value": 2.0},
		{"location": "a", "hour": 1, "day": "wd", "value": 3.0},
		{"location": "a", "hour": 0.0, "day": "x", "value": 4.0},
		{"location": 1, "hour": 1.0, "day": "wd", "value": 5.0},
	}
	table, err := NewTable(tableColumns, 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	values := func(loc, hour, day Value) []Value {
		var out []Value
		if b, ok := table.blocks[valueKey(loc)]; ok {
			run := table.run(b, []keyVal{keyValOf(hour), keyValOf(day)})
			for _, ev := range table.rows[run.lo:run.hi] {
				out = append(out, ev.Fields["value"])
			}
		}
		return out
	}
	for _, c := range []struct {
		loc, hour, day Value
		want           string
	}{
		{"a", int64(1), "wd", "[1 3]"},
		{"a", math.NaN(), nil, "[2]"},
		{"a", math.Copysign(0, -1), "x", "[4]"},
		{1.0, 1, "wd", "[5]"},
		{"a", 2.0, "wd", "[]"},
		{"b", 1.0, "wd", "[]"},
	} {
		if got := fmt.Sprint(values(c.loc, c.hour, c.day)); got != c.want {
			t.Errorf("(%v, %v, %v): %s, want %s", c.loc, c.hour, c.day, got, c.want)
		}
	}
}

// TestKeyValMatchesValueKey: two values key alike in a table exactly when
// valueKey renders them alike, through compare and equal both.
func TestKeyValMatchesValueKey(t *testing.T) {
	vals := []Value{1, 1.0, int64(1), float32(1.5), 1.5, math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		1e15, 1e15 + 2, "x", "1", "", nil, true, false}
	for _, a := range vals {
		for _, b := range vals {
			want := valueKey(a) == valueKey(b)
			ka, kb := keyValOf(a), keyValOf(b)
			if (ka.compare(kb) == 0) != want || ka.equal(kb) != want {
				t.Errorf("%#v vs %#v: compare %d, equal %v, valueKey alike %v", a, b, ka.compare(kb), ka.equal(kb), want)
			}
		}
	}
}
