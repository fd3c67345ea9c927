package cep

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Differential harness: every scenario drives the same random event feed
// through two engines — one evaluating incrementally where the planner
// arms a plan, one recomputing every statement from its windows — and
// asserts the emitted outputs are identical batch by batch. Fields are
// integer-valued so maintained sums cancel exactly under retraction and
// the comparison can demand equality, not tolerance. Batches are compared
// as sorted multisets.
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

// diffRig is one engine plus its collected output batches.
type diffRig struct {
	eng     *Engine
	batches [][]string
}

// forceRecompute takes a statement off the incremental path the way
// production does: it breaks the plan — and, as process does after the
// event that broke it, rebuilds the join indexes an armed trigger plan left
// idle — so every evaluation recomputes the join from the windows. A
// statement the planner found ineligible recomputes already.
func forceRecompute(st *Statement) {
	if st.inc != nil {
		st.inc.disable()
		st.rebuildIndexes()
	}
}

func newDiffRig(t *testing.T, stmts map[string]string, recompute bool) *diffRig {
	t.Helper()
	rig := &diffRig{eng: New()}
	names := make([]string, 0, len(stmts))
	for name := range stmts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st, err := rig.eng.AddStatement(name, stmts[name])
		if err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
		if recompute {
			forceRecompute(st)
		}
		st.AddListener(func(_ *Statement, outs []Output) {
			batch := make([]string, len(outs))
			for i, o := range outs {
				batch[i] = canonFields(o.Fields)
			}
			sort.Strings(batch)
			rig.batches = append(rig.batches, batch)
		})
	}
	return rig
}

type diffEvent struct {
	stream string
	fields map[string]Value
}

// diffScenario is one set of statements and the feed that drives them.
type diffScenario struct {
	label string
	stmts map[string]string
	feed  []diffEvent
}

func runDifferential(t *testing.T, sc diffScenario) {
	t.Helper()
	inc, rec := newDiffRig(t, sc.stmts, false), newDiffRig(t, sc.stmts, true)
	for i, ev := range sc.feed {
		errInc := inc.eng.SendEvent(ev.stream, ev.fields)
		errRec := rec.eng.SendEvent(ev.stream, ev.fields)
		if (errInc == nil) != (errRec == nil) {
			t.Fatalf("event %d error mismatch: incremental=%v recompute=%v\n%v", i, errInc, errRec, sc.stmts)
		}
		if len(inc.batches) != len(rec.batches) {
			t.Fatalf("event %d: incremental emitted %d batches, recompute %d\n%v",
				i, len(inc.batches), len(rec.batches), sc.stmts)
		}
		for bi := len(inc.batches) - 1; bi >= 0; bi-- {
			a, b := inc.batches[bi], rec.batches[bi]
			if len(a) != len(b) {
				t.Fatalf("event %d batch %d: %d vs %d outputs\n incremental: %v\n recompute: %v\n%v",
					i, bi, len(a), len(b), a, b, sc.stmts)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("event %d batch %d output %d:\n incremental: %s\n recompute: %s\n%v",
						i, bi, j, a[j], b[j], sc.stmts)
				}
			}
		}
	}
	total := 0
	for _, b := range inc.batches {
		total += len(b)
	}
	if total == 0 {
		t.Fatalf("scenario produced no outputs; it exercises nothing\n%v", sc.stmts)
	}
}

// randView generates a window view chain of the rule template.
func randView(rng *rand.Rand) string {
	k := 1 + rng.Intn(4)
	switch rng.Intn(6) {
	case 0:
		return "std:lastevent()"
	case 1:
		return fmt.Sprintf("win:length(%d)", k)
	case 2:
		return "win:keepall()"
	case 3:
		return "std:groupwin(loc).std:lastevent()"
	case 4:
		return fmt.Sprintf("std:groupwin(loc).win:length(%d)", k)
	default:
		return "std:groupwin(loc).win:keepall()"
	}
}

func randAggList(rng *rand.Rand) string {
	pool := []string{
		"avg(w.a) AS f0", "sum(w.a) AS f1", "count(*) AS f2", "count(w.b) AS f3",
		"min(w.a) AS f4", "max(w.a) AS f5", "stddev(w.a) AS f6",
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	n := 1 + rng.Intn(len(pool)-1)
	return strings.Join(pool[:n], ", ")
}

func randBusEvent(rng *rand.Rand, stream string) diffEvent {
	f := map[string]Value{
		"loc":  fmt.Sprintf("L%d", rng.Intn(3)),
		"hour": float64(rng.Intn(3)),
		"day":  "wd",
		"a":    float64(rng.Intn(8)),
	}
	if rng.Intn(10) < 7 {
		f["b"] = float64(rng.Intn(5))
	}
	return diffEvent{stream: stream, fields: f}
}

// diffScenarios builds the randomized scenarios, the same ones on every
// call: grouped and ungrouped single windows, two-window joins and the
// Listing-1 shape.
func diffScenarios() []diffScenario {
	var out []diffScenario
	busFeed := func(rng *rand.Rand, n int, streams ...string) []diffEvent {
		feed := make([]diffEvent, n)
		for i := range feed {
			stream := streams[0]
			if len(streams) > 1 {
				stream = streams[rng.Intn(len(streams))]
			}
			feed[i] = randBusEvent(rng, stream)
		}
		return feed
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		where := ""
		if rng.Intn(2) == 0 {
			where = "WHERE w.a >= 2"
		}
		having := ""
		if rng.Intn(2) == 0 {
			having = fmt.Sprintf("HAVING sum(w.a) > %d", rng.Intn(8))
		}
		src := fmt.Sprintf("SELECT w.loc AS loc, %s FROM s0.%s AS w %s GROUP BY w.loc %s",
			randAggList(rng), randView(rng), where, having)
		out = append(out, diffScenario{fmt.Sprintf("GroupedSingleWindow/seed=%d", seed),
			map[string]string{"r": src}, busFeed(rng, 300, "s0")})
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		src := fmt.Sprintf("SELECT %s FROM s0.%s AS w", randAggList(rng), randView(rng))
		out = append(out, diffScenario{fmt.Sprintf("UngroupedSingleWindow/seed=%d", seed),
			map[string]string{"r": src}, busFeed(rng, 300, "s0")})
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		src := fmt.Sprintf(`SELECT l.loc AS loc, avg(r.a) AS x, count(*) AS c, sum(l.a) AS y
			FROM s0.%s AS l, s1.%s AS r WHERE l.loc = r.loc GROUP BY l.loc`,
			randView(rng), randView(rng))
		out = append(out, diffScenario{fmt.Sprintf("TwoWindowJoin/seed=%d", seed),
			map[string]string{"r": src}, busFeed(rng, 300, "s0", "s1")})
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		uni := ""
		if rng.Intn(2) == 0 {
			uni = "UNIDIRECTIONAL"
		}
		src := fmt.Sprintf(`SELECT bd2.loc AS loc, avg(bd2.a) AS cur, avg(th.value) AS thr
			FROM bus.std:lastevent() AS bd %s,
			     bus.std:groupwin(loc).win:length(%d) AS bd2,
			     thr.win:keepall() AS th
			WHERE bd.hour = th.hour AND bd.day = th.day AND bd.loc = th.location AND bd.loc = bd2.loc
			GROUP BY bd2.loc
			HAVING avg(bd2.a) > avg(th.value)`, uni, 1+rng.Intn(5))
		var feed []diffEvent
		for loc := 0; loc < 3; loc++ {
			for h := 0; h < 3; h++ {
				feed = append(feed, diffEvent{stream: "thr", fields: map[string]Value{
					"location": fmt.Sprintf("L%d", loc), "hour": float64(h),
					"day": "wd", "value": float64(rng.Intn(5)),
				}})
			}
		}
		feed = append(feed, busFeed(rng, 300, "bus")...)
		out = append(out, diffScenario{fmt.Sprintf("Listing1Shape/seed=%d", seed),
			map[string]string{"r": src}, feed})
	}
	return out
}

func TestDifferential(t *testing.T) {
	for _, sc := range diffScenarios() {
		sc := sc
		t.Run(sc.label, func(t *testing.T) { runDifferential(t, sc) })
	}
}
