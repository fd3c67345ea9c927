package cep

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// Differential harness: every scenario drives one random event feed
// through an engine and through the join oracle (oracle_test.go), which
// recomputes each statement from window contents of its own, and asserts
// that every event makes each statement emit the same outputs, or return an
// error, in both. Fields are integer-valued or hostile (non-numeric, NULL,
// absent, NaN, ±Inf), so maintained sums cancel exactly under retraction
// and the comparison can demand equality, not tolerance. Outputs are
// compared as sorted multisets.
//
// That the compiled expressions agree with eval is held per expression, by
// FuzzCompiledExprEquivalence and TestCompiledMatchesEval over these same
// scenarios.

func canonFields(f map[string]Value) string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(valueKey(f[k]))
	}
	return sb.String()
}

// canonBatch renders one evaluation's outputs as a sorted multiset.
func canonBatch(outs []map[string]Value) string {
	batch := make([]string, len(outs))
	for i, o := range outs {
		batch[i] = canonFields(o)
	}
	sort.Strings(batch)
	return strings.Join(batch, " | ")
}

// diffEvent is one event of a feed; a zero ts sends it at the wall clock.
type diffEvent struct {
	stream string
	fields map[string]Value
	ts     time.Time
}

// diffScenario is one set of statements and the feed that drives them;
// a hostile feed must make them fail as well as fire. table, when set, is
// registered as the table "tab" before the statements.
type diffScenario struct {
	label   string
	stmts   map[string]string
	feed    []diffEvent
	hostile bool
	table   *Table
}

// oracleRig is an engine, the oracle over its statements and, per
// statement, the batch its listener received on the current event.
type oracleRig struct {
	eng   *Engine
	ref   *oracle
	batch map[string]string
}

func newOracleRig() *oracleRig {
	eng := New()
	return &oracleRig{eng: eng, ref: newOracle(eng), batch: map[string]string{}}
}

// add registers a statement with the engine and the oracle.
func (r *oracleRig) add(t testing.TB, name, src string) *Statement {
	t.Helper()
	st, err := r.eng.AddStatement(name, src)
	if err != nil {
		t.Fatalf("add %s: %v", name, err)
	}
	r.watch(st)
	return st
}

// watch starts comparing a registered statement with the oracle.
func (r *oracleRig) watch(st *Statement) {
	r.ref.add(st)
	st.AddListener(func(st *Statement, outs []Output) {
		fields := make([]map[string]Value, len(outs))
		for i, o := range outs {
			fields[i] = o.Fields
		}
		r.batch[st.Name] = canonBatch(fields)
	})
}

// send delivers one event to both and fails unless every statement emitted
// the same outputs, and returned an error exactly when the oracle's did. It
// returns the engine's error.
func (r *oracleRig) send(t testing.TB, i int, stream string, fields map[string]Value) error {
	t.Helper()
	return r.sendAt(t, i, time.Now(), stream, fields)
}

// sendAt is send with an explicit event time.
func (r *oracleRig) sendAt(t testing.TB, i int, ts time.Time, stream string, fields map[string]Value) error {
	t.Helper()
	before := make(map[string]uint64, len(r.ref.stmts))
	for _, os := range r.ref.stmts {
		before[os.st.Name] = os.st.metrics.Errors
	}
	clear(r.batch)
	err := r.eng.SendEventAt(stream, ts, fields)
	outs, errs := r.ref.send(stream, fields)
	if (err == nil) != (len(errs) == 0) {
		t.Fatalf("event %d (%s %v): engine error %v, oracle errors %v", i, stream, fields, err, errs)
	}
	for _, os := range r.ref.stmts {
		name := os.st.Name
		failed := os.st.metrics.Errors > before[name]
		if failed != (errs[name] != nil) {
			t.Fatalf("event %d (%s %v): %s failed=%v, oracle error %v\n%s", i, stream, fields, name, failed, errs[name], os.st.Query)
		}
		if want := canonBatch(outs[name]); r.batch[name] != want {
			t.Fatalf("event %d (%s %v): %s emitted\n %q\noracle:\n %q\n%s", i, stream, fields, name, r.batch[name], want, os.st.Query)
		}
	}
	return err
}

func runDifferential(t *testing.T, sc diffScenario) {
	t.Helper()
	rig := newOracleRig()
	if sc.table != nil {
		if err := rig.eng.RegisterTable("tab", sc.table); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, len(sc.stmts))
	for name := range sc.stmts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rig.add(t, name, sc.stmts[name])
	}
	fired, failed := 0, 0
	for i, ev := range sc.feed {
		ts := ev.ts
		if ts.IsZero() {
			ts = time.Now()
		}
		if rig.sendAt(t, i, ts, ev.stream, ev.fields) != nil {
			failed++
		}
		for _, b := range rig.batch {
			if b != "" {
				fired++
			}
		}
	}
	if fired == 0 || (sc.hostile && failed == 0) {
		t.Fatalf("scenario fired %d times and failed %d times; it exercises too little\n%v", fired, failed, sc.stmts)
	}
}

// randView generates a window view chain of the rule template grouped on
// field: a length of 1 to 4, or one above every feed's length, which keeps
// every event of a group as win:keepall() would.
func randView(rng *rand.Rand, field string) string {
	n := 1 + rng.Intn(4)
	if rng.Intn(3) == 0 {
		n = 1000
	}
	return fmt.Sprintf("std:groupwin(%s).win:length(%d)", field, n)
}

func randAggList(rng *rand.Rand) string {
	pool := []string{
		"avg(w.a) AS f0", "sum(w.a) AS f1", "count(*) AS f2", "count(w.b) AS f3",
		"min(w.a) AS f4", "max(w.a) AS f5", "stddev(w.a) AS f6", "max(w.b) AS f7",
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	n := 1 + rng.Intn(len(pool)-1)
	return strings.Join(pool[:n], ", ")
}

// hostileValues are what a hostile feed mixes into a and b, besides
// leaving them out: no sum, avg, min, max or stddev can fold one, and an
// ordered comparison fails on the non-numeric ones.
var hostileValues = []Value{"x", nil, math.NaN(), math.Inf(1), math.Inf(-1)}

// setHostile makes field k of f a hostile value, or absent.
func setHostile(rng *rand.Rand, f map[string]Value, k string) {
	if i := rng.Intn(len(hostileValues) + 1); i < len(hostileValues) {
		f[k] = hostileValues[i]
	} else {
		delete(f, k)
	}
}

func randBusEvent(rng *rand.Rand, stream string, hostile bool) diffEvent {
	f := map[string]Value{
		"loc":  fmt.Sprintf("L%d", rng.Intn(3)),
		"hour": float64(rng.Intn(3)),
		"day":  "wd",
		"a":    float64(rng.Intn(8)),
	}
	if rng.Intn(10) < 7 {
		f["b"] = float64(rng.Intn(5))
	}
	if hostile {
		for _, k := range []string{"a", "b"} {
			if rng.Intn(8) == 0 {
				setHostile(rng, f, k)
			}
		}
	}
	return diffEvent{stream: stream, fields: f}
}

// diffScenarios builds the randomized scenarios, the same ones on every
// call: a trigger over a window grouped by location and over one grouped by
// a field every event shares (an ungrouped window), over two windows, the
// Listing-1 shape over a thresholds table, a group key of many types, and
// tables, each over an integer feed and over a hostile one whose statements
// carry a filter that can fail.
func diffScenarios() []diffScenario {
	var out []diffScenario
	busFeed := func(rng *rand.Rand, n int, hostile bool, stream string) []diffEvent {
		feed := make([]diffEvent, n)
		for i := range feed {
			feed[i] = randBusEvent(rng, stream, hostile)
		}
		return feed
	}
	uni := func(rng *rand.Rand) string {
		if rng.Intn(2) == 0 {
			return "UNIDIRECTIONAL"
		}
		return ""
	}
	kinds := []struct {
		name  string
		build func(rng *rand.Rand, hostile bool) (string, []diffEvent, *Table)
	}{
		{"GroupedSingleWindow", func(rng *rand.Rand, hostile bool) (string, []diffEvent, *Table) {
			where := "WHERE t.loc = w.loc"
			if hostile || rng.Intn(2) == 0 {
				where += " AND w.a >= 2"
			}
			having := ""
			if rng.Intn(2) == 0 {
				having = fmt.Sprintf("HAVING sum(w.a) > %d", rng.Intn(8))
			}
			return fmt.Sprintf("SELECT w.loc AS loc, %s FROM s0.std:lastevent() AS t, s0.%s AS w %s GROUP BY w.loc %s",
				randAggList(rng), randView(rng, "loc"), where, having), busFeed(rng, 300, hostile, "s0"), nil
		}},
		// Every event's day is "wd": one group holds the whole window.
		{"UngroupedSingleWindow", func(rng *rand.Rand, hostile bool) (string, []diffEvent, *Table) {
			where := "WHERE t.day = w.day"
			if hostile {
				where += " AND w.a < 7"
			}
			return fmt.Sprintf("SELECT %s FROM s0.std:lastevent() AS t, s0.%s AS w %s", randAggList(rng), randView(rng, "day"), where),
				busFeed(rng, 300, hostile, "s0"), nil
		}},
		{"TwoWindowJoin", func(rng *rand.Rand, hostile bool) (string, []diffEvent, *Table) {
			where := "t.loc = l.loc AND t.hour = r.hour"
			if hostile {
				where += " AND r.a < 7"
			}
			return fmt.Sprintf(`SELECT l.loc AS loc, avg(r.a) AS x, count(*) AS c, sum(l.a) AS y
				FROM s0.std:lastevent() AS t %s, s0.%s AS l, s0.%s AS r WHERE %s GROUP BY l.loc`,
				uni(rng), randView(rng, "loc"), randView(rng, "hour"), where), busFeed(rng, 300, hostile, "s0"), nil
		}},
		{"Listing1Shape", func(rng *rand.Rand, hostile bool) (string, []diffEvent, *Table) {
			where := "bd.hour = th.hour AND bd.day = th.day AND bd.loc = th.location AND bd.loc = bd2.loc"
			if hostile {
				where += " AND bd2.a < 7"
			}
			src := fmt.Sprintf(`SELECT bd2.loc AS loc, avg(bd2.a) AS cur, avg(th.value) AS thr
				FROM bus.std:lastevent() AS bd %s,
				     bus.std:groupwin(loc).win:length(%d) AS bd2,
				     tab.win:keepall() AS th
				WHERE %s
				GROUP BY bd2.loc
				HAVING avg(bd2.a) > avg(th.value)`, uni(rng), 1+rng.Intn(5), where)
			var rows []map[string]Value
			for loc := 0; loc < 3; loc++ {
				for h := 0; h < 3; h++ {
					f := map[string]Value{
						"location": fmt.Sprintf("L%d", loc), "hour": float64(h),
						"day": "wd", "value": float64(rng.Intn(5)),
					}
					if hostile && rng.Intn(9) == 0 {
						setHostile(rng, f, "value")
					}
					rows = append(rows, f)
				}
			}
			table, err := NewTable([]string{"location", "hour", "day", "value"}, 3, rows)
			if err != nil {
				panic(err)
			}
			return src, busFeed(rng, 300, hostile, "bus"), table
		}},
		// A group window whose key is a string on most events and a
		// number, NaN, NULL or absent on the others: a key-index entry
		// serves every value.
		{"MixedGroupKeys", func(rng *rand.Rand, hostile bool) (string, []diffEvent, *Table) {
			where := "t.loc = w.loc"
			if hostile {
				where += " AND w.a < 7"
			}
			feed := busFeed(rng, 300, hostile, "s0")
			for _, ev := range feed {
				if rng.Intn(3) == 0 {
					ev.fields["loc"] = []Value{1.0, 1, math.NaN(), nil, "x"}[rng.Intn(5)]
				}
			}
			return fmt.Sprintf(`SELECT t.loc AS loc, %s FROM s0.std:lastevent() AS t %s, s0.std:groupwin(loc).%s AS w WHERE %s GROUP BY t.loc`,
				randAggList(rng), uni(rng), []string{"win:length(3)", "win:length(1)", "win:length(1000)"}[rng.Intn(3)], where), feed, nil
		}},
		// Listing 1 over a registered table: see tableScenario.
		{"TableItem", func(rng *rand.Rand, hostile bool) (string, []diffEvent, *Table) {
			table := randTable(rng, hostile)
			return tableStatement(rng, hostile), tableFeed(rng, 300, hostile), table
		}},
		// Runs of one event sent two or three times, at one event time.
		{"DuplicateTimestamps", func(rng *rand.Rand, hostile bool) (string, []diffEvent, *Table) {
			table := randTable(rng, hostile)
			feed := duplicateTimestamps(rng, tableFeed(rng, 120, hostile))
			return tableStatement(rng, hostile), feed, table
		}},
	}
	for k, kind := range kinds {
		for _, hostile := range []bool{false, true} {
			for seed := int64(0); seed < 4; seed++ {
				label, off := fmt.Sprintf("%s/seed=%d", kind.name, seed), int64(0)
				if hostile {
					label, off = "Hostile/"+label, 50
				}
				rng := rand.New(rand.NewSource(int64(100*(k+1)) + off + seed))
				src, feed, table := kind.build(rng, hostile)
				out = append(out, diffScenario{label, map[string]string{"r": src}, feed, hostile, table})
			}
		}
	}
	return out
}

// duplicateTimestamps sends each event of feed two or three times in a
// row, and every four sends at one event time.
func duplicateTimestamps(rng *rand.Rand, feed []diffEvent) []diffEvent {
	var out []diffEvent
	base := time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)
	for _, ev := range feed {
		ev.ts = base.Add(time.Duration(len(out)/4) * time.Second)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			out = append(out, ev)
		}
	}
	return out
}

func TestDifferential(t *testing.T) {
	for _, sc := range diffScenarios() {
		sc := sc
		t.Run(sc.label, func(t *testing.T) { runDifferential(t, sc) })
	}
}
