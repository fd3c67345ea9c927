package cep

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/geo"
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
// through eval, the tree-walking reference in oracle_test.go. One op is one
// pass over all of them.
func BenchmarkAblationExprCompilation(b *testing.B) {
	st, _ := benchListing1(b, New())
	exprs, compiled := statementExprs(st)

	bus := st.engine.bind(&Event{Stream: "bus", Fields: map[string]Value{
		"leafArea": "a07", "hour": 7.0, "day": "weekday", "delay": 42.0,
	}})
	thr := st.engine.bind(&Event{Stream: "thresholds_abl", Fields: map[string]Value{
		"location": "a07", "hour": 7.0, "day": "weekday", "value": 1e12,
	}})
	row := []*Event{bus, bus, thr}
	ctx := &evalContext{row: row, aggF: make([]float64, len(st.aggCalls)), aggNull: make([]bool, len(st.aggCalls))}
	oracle := &oracleContext{row: row, aliasOrder: st.aliasOrder, aggs: make(map[string]Value, len(st.aggCalls))}
	for i, call := range st.aggCalls {
		ctx.aggF[i] = float64(40 + i)
		oracle.aggs[call.String()] = ctx.aggF[i]
	}

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
				v, err := eval(e, oracle)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		}
	})
}

// BenchmarkListing1_FourRules prices what one EsperBolt engine does per
// delivered trace: the four rules of the shipped topology.xml in one engine
// — two on groupwin(stopId).length(10), two on leafArea (lengths 10 and
// 100) — over 28-field rows shaped like the pipeline's enriched payload.
// 4096 stops and 1024 leaf areas keep ~140k events retained, so the event a
// length window evicts left the cache long ago, as in a city-sized run; the
// windows are filled before the clock starts. Two shapes: "all", one engine
// that owns every location and takes every row, and "owned", one of four
// engines: it owns a quarter of the stops and a quarter of the leaves, each
// rule installed on its share (as core.InstallRule installs it), and it is
// sent only the rows whose stop or leaf it owns, as the Splitter sends them.
func BenchmarkListing1_FourRules(b *testing.B) {
	b.Run("all", func(b *testing.B) { benchFourRules(b, 1) })
	b.Run("owned", func(b *testing.B) { benchFourRules(b, 4) })
}

// ownedAdder is the engine's owned-key API. The benchmark reaches it through
// an interface so that scripts/bench_cep.sh can run this file against a
// parent commit whose engine lacks it: there the owned shape installs its
// rules unrestricted, with the same thresholds and the same rows.
type ownedAdder interface {
	Own(stream, field string, keys ...string) []string
	AddOwnedStatement(name, src, stream, field string) (*Statement, error)
}

// benchFourRules runs the four-rules benchmark for one of share engines:
// it owns stop i when i%share == 0 and leaf i when (i/share)%share == 0, so
// that along the feed a row's stop and leaf are owned independently.
func benchFourRules(b *testing.B, share int) {
	const (
		stops  = 4096
		leaves = 1024
		hours  = 24
	)
	rules := []struct {
		name, loc, attr string
		window, locs    int
	}{
		{"leafDelay", "leafArea", "delay", 10, leaves},
		{"leafSpeed", "leafArea", "speed", 100, leaves},
		{"stopDelay", "stopId", "delay", 10, stops},
		{"stopActual", "stopId", "actualDelay", 10, stops},
	}
	locName := func(field string, i int) string { return fmt.Sprintf("%s%04d", field[:4], i) }
	owns := func(field string, i int) bool {
		if field == "stopId" {
			return i%share == 0
		}
		return (i/share)%share == 0
	}

	eng := New()
	own, _ := any(eng).(ownedAdder)
	for _, r := range rules {
		thr := "thresholds_" + r.name
		var keys []string
		for loc := 0; loc < r.locs; loc++ {
			if owns(r.loc, loc) {
				keys = append(keys, locName(r.loc, loc))
			}
		}
		src := listing1EPL(r.loc, r.attr, r.window, thr)
		var err error
		if share > 1 && own != nil {
			own.Own("bus", r.loc, keys...)
			_, err = own.AddOwnedStatement(r.name, src, "bus", r.loc)
		} else {
			_, err = eng.AddStatement(r.name, src)
		}
		if err != nil {
			b.Fatal(err)
		}
		for _, loc := range keys {
			for h := 0; h < hours; h++ {
				err := eng.SendEvent(thr, map[string]Value{
					"location": loc, "hour": float64(h),
					"day": "weekday", "value": 1e12,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	// 2013-01-07 is a Monday: every row reads day "weekday".
	base := time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)
	layers := make([]string, 11)
	for i := range layers {
		layers[i] = fmt.Sprintf("layer%dArea", i)
	}
	// next returns the next row of the feed this engine is sent.
	i := 0
	next := func() (time.Time, map[string]Value) {
		for ; ; i++ {
			// Odd multipliers of a power-of-two count visit every location,
			// in an order that does not follow allocation order.
			stop, leaf := (i*2731)%stops, (i*389)%leaves
			if !owns("stopId", stop) && !owns("leafArea", leaf) {
				continue
			}
			ts := base.Add(time.Duration(i%(hours*3600)) * time.Second)
			tr := busdata.Trace{
				Timestamp: ts, LineID: "L" + strconv.Itoa(i%67), Direction: i%2 == 0,
				Pos:   geo.Point{Lat: 53.3 + float64(i%1000)*1e-4, Lon: -6.3 + float64(i%777)*1e-4},
				Delay: float64(i % 300), Congestion: i%9 == 0,
				BusStop: strconv.Itoa(i % stops), VehicleID: strconv.Itoa(i % 911),
			}
			m := tr.FillValues(busdata.GetValues())
			m["speed"] = float64(i % 60)
			m["actualDelay"] = float64(i%41) - 20
			m["heading"] = float64(i % 360)
			for _, f := range layers {
				m[f] = locName("leafArea", leaf)
			}
			m["leafArea"] = locName("leafArea", leaf)
			m["areaPath"] = layers
			m["stopId"] = locName("stopId", stop)
			i++
			return ts, m
		}
	}
	// Fill every window: the longest, length 100 over the engine's leaves,
	// needs 100 arrivals at each, which the first 102400 rows of the feed
	// bring.
	for i < leaves*100+stops {
		ts, m := next()
		if err := eng.SendEventAt("bus", ts, m); err != nil {
			b.Fatal(err)
		}
	}
	// Rows are built outside the clock, a chunk at a time.
	const chunk = 4096
	tss := make([]time.Time, chunk)
	rows := make([]map[string]Value, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		n := b.N - done
		if n > chunk {
			n = chunk
		}
		b.StopTimer()
		for j := 0; j < n; j++ {
			tss[j], rows[j] = next()
		}
		b.StartTimer()
		for j := 0; j < n; j++ {
			if err := eng.SendEventAt("bus", tss[j], rows[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
