package cep

import (
	"fmt"
	"testing"
)

// benchListing1 registers the Listing-1 rule (delay per leaf area, window
// 10) on eng, loads 48 locations × 24 hours of thresholds, and returns the
// statement and a function sending the i-th bus event.
func benchListing1(b *testing.B, eng *Engine) (*Statement, func(i int)) {
	b.Helper()
	st, err := eng.AddStatement("abl", listing1EPL("leafArea", "delay", 10, "thresholds_abl"))
	if err != nil {
		b.Fatal(err)
	}
	for loc := 0; loc < 48; loc++ {
		for h := 0; h < 24; h++ {
			err := eng.SendEvent("thresholds_abl", map[string]Value{
				"location": fmt.Sprintf("a%02d", loc), "hour": float64(h),
				"day": "weekday", "value": 1e12,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	return st, func(i int) {
		err := eng.SendEvent("bus", map[string]Value{
			"leafArea": fmt.Sprintf("a%02d", i%48),
			"hour":     float64(i % 24),
			"day":      "weekday",
			"delay":    float64(i % 300),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationJoinStrategy prices the paths a standing statement can
// take on the Listing 1 rule with a large threshold stream: the
// incremental plan it runs in production, whose maintained state skips the
// join entirely; the recompute fallback with indexed equi-joins, which a
// broken plan drops to; and recompute with the nested loop non-equi
// conjuncts take. The last two are reached the way the tests reach them.
func BenchmarkAblationJoinStrategy(b *testing.B) {
	for _, mode := range []struct {
		name                  string
		recompute, nestedLoop bool
	}{
		{"indexed", true, false},
		{"nested-loop", true, true},
		{"incremental", false, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := New()
			eng.disableIndexJoins = mode.nestedLoop
			st, send := benchListing1(b, eng)
			if mode.recompute {
				forceRecompute(st)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send(i)
			}
		})
	}
}

var benchSink Value

// BenchmarkAblationExprCompilation prices the statement compiler per
// expression: every expression of the Listing 1 rule — SELECT items, WHERE
// conjuncts, GROUP BY key, HAVING, aggregate arguments — evaluated over
// one bound join row, once through the closures a statement runs and once
// through eval, the tree-walking one-shot evaluator. One op is one pass
// over all of them.
func BenchmarkAblationExprCompilation(b *testing.B) {
	st, _ := benchListing1(b, New())
	exprs, compiled := statementExprs(st)

	bus := st.engine.bind(&Event{Stream: "bus", Fields: map[string]Value{
		"leafArea": "a07", "hour": 7.0, "day": "weekday", "delay": 42.0,
	}})
	thr := st.engine.bind(&Event{Stream: "thresholds_abl", Fields: map[string]Value{
		"location": "a07", "hour": 7.0, "day": "weekday", "value": 1e12,
	}})
	aggs := make(map[string]Value, len(st.comp.aggKeys))
	for i, key := range st.comp.aggKeys {
		aggs[key] = float64(40 + i)
	}
	ctx := &evalContext{row: []*Event{bus, bus, thr}, aliasOrder: st.aliasOrder, aggs: aggs}

	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range compiled {
				v, err := f(ctx)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		}
	})
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, e := range exprs {
				v, err := eval(e, ctx)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		}
	})
}
