package cep

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/geo"
)

var benchSink Value

// BenchmarkAblationExprCompilation prices the statement compiler per
// expression: every expression of the Listing 1 rule — SELECT items, WHERE
// conjuncts, GROUP BY key, HAVING, aggregate arguments — evaluated over
// one bound join row, once through the closures a statement runs and once
// through eval, the tree-walking reference in oracle_test.go. One op is one
// pass over all of them.
func BenchmarkAblationExprCompilation(b *testing.B) {
	eng := New()
	tab, err := NewTable([]string{"location", "hour", "day", "value"}, 3, []map[string]Value{
		{"location": "a07", "hour": 7.0, "day": "weekday", "value": 1e12},
	})
	if err == nil {
		err = eng.RegisterTable("thresholds_abl", tab)
	}
	if err != nil {
		b.Fatal(err)
	}
	st, err := eng.AddStatement("abl", listing1EPL("leafArea", "delay", 10, "thresholds_abl"))
	if err != nil {
		b.Fatal(err)
	}
	exprs, compiled := statementExprs(st)

	bus := st.engine.bind(&Event{Stream: "bus", Fields: map[string]Value{
		"leafArea": "a07", "hour": 7.0, "day": "weekday", "delay": 42.0,
	}})
	row := []*Event{bus, bus, &tab.rows[0]}
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
// 4096 stops and 1024 leaf areas keep ~140k window positions filled, so the
// value ring position a length window retracts left the cache long ago, as
// in a city-sized run; the windows are filled before the clock starts.
// Each rule joins 24 hours of thresholds per location, registered as a
// table, as core.InstallRule registers a rule's. The hour changes every 3600 rows; a stop is
// revisited every 4096, so a stop rule's probe nearly always meets a new
// hour and folds the table rows of it, while a leaf, revisited every 1024,
// mostly meets the hour its entry holds. Two shapes: "all", one engine
// that owns every location and takes every row, and "owned", one of four
// engines: it owns a quarter of the stops and a quarter of the leaves, each
// rule installed on its share (as core.InstallRule installs it), and it is
// sent only the rows whose stop or leaf it owns, as the Splitter sends them.
func BenchmarkListing1_FourRules(b *testing.B) {
	b.Run("all", func(b *testing.B) { benchFourRules(b, 1) })
	b.Run("owned", func(b *testing.B) { benchFourRules(b, 4) })
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
	for _, r := range rules {
		thr := "thresholds_" + r.name
		// The table holds every location, as core.InstallRule's does.
		var keys []string
		var rows []map[string]Value
		for loc := 0; loc < r.locs; loc++ {
			if owns(r.loc, loc) {
				keys = append(keys, locName(r.loc, loc))
			}
			for h := 0; h < hours; h++ {
				rows = append(rows, map[string]Value{
					"location": locName(r.loc, loc), "hour": float64(h),
					"day": "weekday", "value": 1e12,
				})
			}
		}
		tab, err := NewTable([]string{"location", "hour", "day", "value"}, 3, rows)
		if err == nil {
			err = eng.RegisterTable(thr, tab)
		}
		if err != nil {
			b.Fatal(err)
		}
		src := listing1EPL(r.loc, r.attr, r.window, thr)
		if share > 1 {
			eng.Own("bus", r.loc, keys...)
			_, err = eng.AddOwnedStatement(r.name, src, "bus", r.loc)
		} else {
			_, err = eng.AddStatement(r.name, src)
		}
		if err != nil {
			b.Fatal(err)
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
