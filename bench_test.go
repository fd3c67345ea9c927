package trafficcep

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§5), plus micro-benchmarks for the substrates that back them.
// The Figure benchmarks call the same internal/experiments code as
// cmd/experiments, so `go test -bench=.` regenerates every result; key
// series values are attached via b.ReportMetric. See EXPERIMENTS.md for the
// paper-vs-measured discussion.

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/cluster"
	"trafficcep/internal/core"
	"trafficcep/internal/dfs"
	"trafficcep/internal/epl"
	"trafficcep/internal/experiments"
	"trafficcep/internal/geo"
	"trafficcep/internal/grid"
	"trafficcep/internal/mapreduce"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/regress"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// --- Tables 1 & 2: dataset ---

// BenchmarkTable2_DatasetGeneration measures the synthetic feed at the full
// Table 2 calibration (911 buses, 67 lines, 20 s period).
func BenchmarkTable2_DatasetGeneration(b *testing.B) {
	gen, err := busdata.NewGenerator(busdata.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ts := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traces := gen.Tick(ts)
		n += len(traces)
		ts = ts.Add(20 * time.Second)
		if ts.Hour() == 3 {
			ts = ts.Add(3 * time.Hour)
		}
	}
	b.ReportMetric(float64(n)/float64(b.N), "traces/tick")
}

// --- Listing 1: the generic EPL rule on the live engine ---

func BenchmarkListing1_RuleEvaluation(b *testing.B) {
	for _, window := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			eng := cep.New()
			r := core.Rule{Name: "bench", Attribute: busdata.AttrDelay, Kind: core.QuadtreeLeaves, Window: window}
			if _, err := eng.AddStatement("bench", r.StreamEPL()); err != nil {
				b.Fatal(err)
			}
			// 24 locations × 24 hours of thresholds.
			for loc := 0; loc < 24; loc++ {
				for h := 0; h < 24; h++ {
					err := eng.SendEvent(r.ThresholdStream(), map[string]cep.Value{
						"location": fmt.Sprintf("a%02d", loc), "hour": float64(h),
						"day": "weekday", "value": 1e12,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := eng.SendEvent(core.BusStream, map[string]cep.Value{
					"leafArea": fmt.Sprintf("a%02d", i%24),
					"hour":     float64(i % 24),
					"day":      "weekday",
					"delay":    float64(i % 300),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Listing 2: the threshold SQL query ---

func BenchmarkListing2_ThresholdQuery(b *testing.B) {
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		b.Fatal(err)
	}
	var rows []sqlstore.StatRow
	for loc := 0; loc < 100; loc++ {
		for h := 0; h < 24; h++ {
			rows = append(rows, sqlstore.StatRow{
				Attribute: busdata.AttrDelay, Location: fmt.Sprintf("a%03d", loc),
				Hour: h, Day: busdata.Weekday, Mean: float64(h), Stdv: 1,
			})
		}
	}
	if err := store.Put(rows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ths, err := store.Thresholds(busdata.AttrDelay, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(ths) != 2400 {
			b.Fatalf("thresholds = %d", len(ths))
		}
	}
}

// --- Figure 9 / §5.1: regression functions ---

// BenchmarkFigure9_RegressionModel fits the Function 2 polynomial (order 1
// and 2) on live-measured rule-pair latencies gathered once per run.
func BenchmarkFigure9_RegressionModel(b *testing.B) {
	// Gather real measurements once (not timed).
	res, err := experiments.Figure9(12, 150)
	if err != nil {
		b.Fatal(err)
	}
	// Time the fitting machinery itself on the measured-shape data.
	var xs [][]float64
	var ys []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		l1, l2 := rng.Float64()*10, rng.Float64()*10
		xs = append(xs, []float64{l1, l2})
		ys = append(ys, res.Order1.Predict([]float64{l1, l2})+rng.NormFloat64()*0.01)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.FitPoly(xs, ys, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := regress.FitPoly(xs, ys, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Order1MAE, "order1-MAE-ms")
	b.ReportMetric(res.Order2MAE, "order2-MAE-ms")
}

// --- Figure 10: threshold retrieval strategies ---

// BenchmarkFigure10_ThresholdRetrieval measures per-tuple latency of each
// strategy on the live engine; ns/op is the figure's y-axis.
func BenchmarkFigure10_ThresholdRetrieval(b *testing.B) {
	for _, strat := range experiments.Strategies {
		b.Run(strat.String(), func(b *testing.B) {
			db := sqlstore.NewDB()
			store, err := sqlstore.NewThresholdStore(db)
			if err != nil {
				b.Fatal(err)
			}
			var stats []sqlstore.StatRow
			for loc := 0; loc < 32; loc++ {
				for h := 0; h < 24; h++ {
					for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
						stats = append(stats, sqlstore.StatRow{
							Attribute: busdata.AttrDelay, Location: fmt.Sprintf("area%03d", loc),
							Hour: h, Day: day, Mean: 1e12, Stdv: 0,
						})
					}
				}
			}
			if err := store.Put(stats); err != nil {
				b.Fatal(err)
			}
			eng := cep.New()
			rule := core.Rule{
				Name: "fig10", Attribute: busdata.AttrDelay,
				Kind: core.QuadtreeLayer, Layer: 2, Window: 10, Sensitivity: 1,
			}
			if _, err := core.InstallRule(eng, rule, core.InstallOptions{
				Strategy: strat, Store: store, StaticThreshold: 1e12,
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := eng.SendEvent(core.BusStream, map[string]cep.Value{
					rule.LocationField(): fmt.Sprintf("area%03d", i%32),
					"hour":               float64(i % 24),
					"day":                busdata.Weekday.String(),
					busdata.AttrDelay:    float64(i % 300),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 11: rules allocation ---

func BenchmarkFigure11_RulesAllocation(b *testing.B) {
	var res experiments.Fig11Result
	var err error
	counts := []int{5, 10, 15, 20, 25, 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure11(counts)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(counts) - 1
	b.ReportMetric(res.ProposedW1.Points[last].Throughput, "proposedW1-tps@30")
	b.ReportMetric(res.RoundRobinW1.Points[last].Throughput, "roundrobinW1-tps@30")
	b.ReportMetric(res.ProposedW1.Points[last].Throughput/res.RoundRobinW1.Points[last].Throughput, "speedupW1@30")
}

// --- Figures 12 & 13: rules partitioning ---

func BenchmarkFigure12_13_Partitioning(b *testing.B) {
	var res experiments.Fig12Result
	var err error
	counts := []int{1, 3, 6, 9, 12, 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure12_13(counts)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(counts) - 1
	b.ReportMetric(res.Ours.Points[last].Throughput, "ours-tps@15")
	b.ReportMetric(res.AllGrouping.Points[last].Throughput, "allgrouping-tps@15")
	b.ReportMetric(res.AllRules.Points[last].Throughput, "allrules-tps@15")
	b.ReportMetric(res.Ours.Points[last].LatencyMs, "ours-lat-ms@15")
	b.ReportMetric(res.AllRules.Points[last].LatencyMs, "allrules-lat-ms@15")
}

// --- Figures 14 & 15: workload mixes ---

func BenchmarkFigure14_15_Workloads(b *testing.B) {
	var series []experiments.Series
	var err error
	counts := []int{3, 6, 9, 12, 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err = experiments.Figure14_15(counts)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(counts) - 1
	for _, s := range series {
		switch s.Name {
		case "last event":
			b.ReportMetric(s.Points[last].Throughput, "last-event-tps@15")
		case "all the rules":
			b.ReportMetric(s.Points[last].Throughput, "all-rules-tps@15")
		}
	}
}

// --- Figures 16 & 17: VM scalability ---

func BenchmarkFigure16_17_VMScalability(b *testing.B) {
	var series []experiments.Series
	var err error
	counts := []int{3, 6, 9, 12, 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err = experiments.Figure16_17(counts)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(counts) - 1
	for _, s := range series {
		name := strings.ReplaceAll(s.Name, " ", "")
		b.ReportMetric(s.Points[last].Throughput, name+"-tps@15")
		b.ReportMetric(s.Points[last].LatencyMs, name+"-lat-ms@15")
	}
}

// --- Table 3 story: Function 1 inputs (window length, threshold count) ---

func BenchmarkFunction1_SingleRuleLatency(b *testing.B) {
	for _, cfg := range []struct{ l, t int }{
		{1, 48}, {100, 48}, {1000, 48}, {100, 480}, {100, 4800},
	} {
		b.Run(fmt.Sprintf("l=%d,t=%d", cfg.l, cfg.t), func(b *testing.B) {
			ms, err := core.MeasureRuleLatencyMs(cfg.l, cfg.t, 24, b.N+100)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ms*1e6, "ns/event")
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkEPLParse(b *testing.B) {
	r := core.Rule{Name: "p", Attribute: busdata.AttrDelay, Kind: core.QuadtreeLeaves, Window: 100}
	src := r.StreamEPL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := epl.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuadtreeLocate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var seeds []geo.Point
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, geo.Point{
			Lat: geo.Dublin.MinLat + rng.Float64()*(geo.Dublin.MaxLat-geo.Dublin.MinLat),
			Lon: geo.Dublin.MinLon + rng.Float64()*(geo.Dublin.MaxLon-geo.Dublin.MinLon),
		})
	}
	tree, err := quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 8})
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Point{
			Lat: geo.Dublin.MinLat + rng.Float64()*(geo.Dublin.MaxLat-geo.Dublin.MinLat),
			Lon: geo.Dublin.MinLon + rng.Float64()*(geo.Dublin.MaxLon-geo.Dublin.MinLon),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree.Locate(pts[i%len(pts)]) == nil {
			b.Fatal("locate failed")
		}
	}
}

func BenchmarkStormPipelineThroughput(b *testing.B) {
	// A 4-stage pipeline shuffling b.N tuples end to end.
	rt, err := benchPipeline(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStormPipelineTelemetry measures the telemetry tax on the same
// pipeline: tuple tracing + per-hop/end-to-end histograms enabled vs.
// disabled. The acceptance bar for the unified telemetry subsystem is a
// ≤ 5% throughput regression when enabled.
func BenchmarkStormPipelineTelemetry(b *testing.B) {
	for _, mode := range []struct {
		name string
		reg  *telemetry.Registry
	}{{"disabled", nil}, {"enabled", telemetry.NewRegistry()}} {
		b.Run(mode.name, func(b *testing.B) {
			rt, err := benchPipeline(b.N, storm.WithTelemetry(mode.reg))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := rt.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if mode.reg != nil {
				snap := mode.reg.Gather()
				if m, ok := snap.Get("storm.sink.e2e_latency_ns"); ok && m.Histogram != nil {
					b.ReportMetric(float64(m.Histogram.P99), "e2e-p99-ns")
				}
			}
		})
	}
}

// BenchmarkStormPipelineFaults measures the fault-tolerance tax on the same
// pipeline: baseline (FailFast, no ack tracking — the hot path must be
// unchanged), the Degrade policy, and full ack tracking with anchored spout
// emissions (at-least-once, the most expensive mode).
func BenchmarkStormPipelineFaults(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []storm.Option
	}{
		{"baseline", nil},
		{"degrade", []storm.Option{storm.WithFailurePolicy(storm.Degrade)}},
		{"acked", []storm.Option{storm.WithAckTimeout(time.Second)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var rt *storm.Runtime
			var err error
			if mode.name == "acked" {
				rt, err = benchPipelineSpout(func() storm.Spout { return &benchAckSpout{n: b.N} }, mode.opts...)
			} else {
				rt, err = benchPipeline(b.N, mode.opts...)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := rt.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkStormThroughput measures end-to-end transport throughput of the
// batched data plane on a Figure-8-shaped topology (spout → fields → two
// shuffle stages → splitter → direct-grouped engines → sink), across batch
// sizes 1 and 64, with telemetry tracing on and off, and across the acking
// modes: off (no reliability), xor (the sharded checksum acker, the default
// when acking is enabled) and epoch (barrier checkpointing — no per-tuple
// tracking, so the hot path should be near the ack=off baseline). batch=1
// is per-tuple transport; the acceptance bars are ≥ 2× tuples/s at batch=64
// with telemetry and acking off, ack=xor within 1.5× of ack=off there, and
// ack=epoch within 1.15×.
func BenchmarkStormThroughput(b *testing.B) {
	onoff := func(v bool) string {
		if v {
			return "on"
		}
		return "off"
	}
	for _, size := range []int{1, 64} {
		for _, tel := range []bool{false, true} {
			for _, ack := range []string{"off", "xor", "epoch"} {
				name := fmt.Sprintf("batch=%d/telemetry=%s/ack=%s", size, onoff(tel), ack)
				b.Run(name, func(b *testing.B) {
					opts := []storm.Option{
						storm.WithBatchSize(size),
						storm.WithBatchTimeout(time.Millisecond),
					}
					if tel {
						opts = append(opts, storm.WithTelemetry(telemetry.NewRegistry()))
					}
					switch ack {
					case "xor":
						opts = append(opts, storm.WithAckTimeout(30*time.Second), storm.WithAckMode(storm.AckXOR))
					case "epoch":
						opts = append(opts, storm.WithAckTimeout(30*time.Second),
							storm.WithAckMode(storm.AckEpoch), storm.WithEpochInterval(50*time.Millisecond))
					}
					rt, err := benchFigure8(b.N, ack != "off", opts...)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					start := time.Now()
					if err := rt.Run(); err != nil {
						b.Fatal(err)
					}
					elapsed := time.Since(start)
					b.StopTimer()
					b.ReportMetric(float64(b.N)/elapsed.Seconds(), "tuples/s")
				})
			}
		}
	}
}

// BenchmarkDistributedThroughput runs the same Figure 8 pipeline split
// across worker runtimes connected over loopback TCP — the multi-process
// data plane exercised in one benchmark process. workers=1 is the
// in-process channel baseline; larger counts add the wire codec, framing
// and per-peer connections to every cross-worker edge, so the delta is the
// cost of distribution itself.
func BenchmarkDistributedThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			lns := make([]net.Listener, workers)
			peers := make([]string, workers)
			for i := range lns {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				lns[i] = ln
				peers[i] = ln.Addr().String()
			}
			rts := make([]*storm.Runtime, workers)
			for w := range rts {
				var opts []storm.Option
				if workers > 1 {
					opts = append(opts, storm.WithWorker(w, peers), storm.WithListener(lns[w]))
				} else {
					lns[w].Close()
				}
				rt, err := benchFigure8(b.N, false, opts...)
				if err != nil {
					b.Fatal(err)
				}
				rts[w] = rt
			}
			errs := make([]error, workers)
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for w, rt := range rts {
				wg.Add(1)
				go func(w int, rt *storm.Runtime) {
					defer wg.Done()
					errs[w] = rt.Run()
				}(w, rt)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			for w, err := range errs {
				if err != nil {
					b.Fatalf("worker %d: %v", w, err)
				}
			}
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "tuples/s")
		})
	}
}

// benchFigure8 wires the benchmark variant of the Figure 8 pipeline: the
// same seven-component shape and grouping mix as the production topology
// (fields, shuffle, direct) with pass-through bolts, so the benchmark
// isolates transport cost from bolt logic. The spout cycles a ring of
// preallocated payload maps — values are only read downstream — so payload
// allocation does not mask transport costs either.
func benchFigure8(n int, ack bool, opts ...storm.Option) (*storm.Runtime, error) {
	bldr := storm.NewTopologyBuilder("figure8-bench")
	bldr.SetSpout("busreader", func() storm.Spout { return &f8Spout{n: n, ack: ack} }, 1, 1)
	bldr.SetBolt("preprocess", func() storm.Bolt { return &benchBolt{} }, 1, 1).FieldsGrouping("busreader", "k")
	bldr.SetBolt("areatracker", func() storm.Bolt { return &benchBolt{} }, 2, 2).ShuffleGrouping("preprocess")
	bldr.SetBolt("busstops", func() storm.Bolt { return &benchBolt{} }, 2, 2).ShuffleGrouping("areatracker")
	bldr.SetBolt("splitter", func() storm.Bolt { return &benchSplitBolt{} }, 1, 1).ShuffleGrouping("busstops")
	bldr.SetBolt("esper", func() storm.Bolt { return &benchBolt{} }, 3, 3).StreamGrouping("splitter", "routed", storm.DirectGrouping)
	bldr.SetBolt("storer", func() storm.Bolt { return &benchBolt{drop: true} }, 1, 1).ShuffleGrouping("esper")
	topo, err := bldr.Build()
	if err != nil {
		return nil, err
	}
	return storm.New(topo, opts...)
}

// f8Spout emits n tuples from a ring of 64 preallocated payload maps,
// anchored when ack is set (mirroring busReaderSpout's acking mode).
type f8Spout struct {
	n, i int
	ack  bool
	ring []map[string]any
}

func (s *f8Spout) Open(storm.TaskContext) error {
	s.ring = make([]map[string]any, 64)
	for i := range s.ring {
		s.ring[i] = map[string]any{"k": i, "v": i}
	}
	return nil
}
func (s *f8Spout) Close() error { return nil }
func (s *f8Spout) Ack(string)   {}
func (s *f8Spout) Fail(string)  {}
func (s *f8Spout) NextTuple(col storm.Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	vals := s.ring[s.i%len(s.ring)]
	if ac, ok := col.(storm.AnchorCollector); s.ack && ok && ac.Acking() {
		ac.EmitAnchored(strconv.Itoa(s.i), vals)
	} else {
		col.Emit(vals)
	}
	s.i++
	return s.i < s.n, nil
}

// benchSplitBolt routes each tuple to one of the direct-grouped engine
// tasks, like the production Splitter.
type benchSplitBolt struct{}

func (bb *benchSplitBolt) Prepare(storm.TaskContext) error { return nil }
func (bb *benchSplitBolt) Cleanup() error                  { return nil }
func (bb *benchSplitBolt) Execute(t storm.Tuple, col storm.Collector) error {
	v, _ := t.Values["v"].(int)
	col.EmitDirect("routed", v%3, t.Values)
	return nil
}

type benchAckSpout struct{ n, i int }

func (s *benchAckSpout) Open(storm.TaskContext) error { return nil }
func (s *benchAckSpout) Close() error                 { return nil }
func (s *benchAckSpout) Ack(string)                   {}
func (s *benchAckSpout) Fail(string)                  {}
func (s *benchAckSpout) NextTuple(col storm.Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	vals := map[string]any{"k": s.i % 64, "v": s.i}
	if ac, ok := col.(storm.AnchorCollector); ok && ac.Acking() {
		ac.EmitAnchored(strconv.Itoa(s.i), vals)
	} else {
		col.Emit(vals)
	}
	s.i++
	return s.i < s.n, nil
}

func benchPipeline(n int, opts ...storm.Option) (*storm.Runtime, error) {
	return benchPipelineSpout(func() storm.Spout { return &benchSpout{n: n} }, opts...)
}

func benchPipelineSpout(spout storm.SpoutFactory, opts ...storm.Option) (*storm.Runtime, error) {
	bldr := storm.NewTopologyBuilder("bench")
	bldr.SetSpout("src", spout, 1, 1)
	bldr.SetBolt("m1", func() storm.Bolt { return &benchBolt{} }, 2, 2).ShuffleGrouping("src")
	bldr.SetBolt("m2", func() storm.Bolt { return &benchBolt{} }, 2, 2).FieldsGrouping("m1", "k")
	bldr.SetBolt("sink", func() storm.Bolt { return &benchBolt{drop: true} }, 1, 1).ShuffleGrouping("m2")
	topo, err := bldr.Build()
	if err != nil {
		return nil, err
	}
	return storm.New(topo, opts...)
}

type benchSpout struct{ n, i int }

func (s *benchSpout) Open(storm.TaskContext) error { return nil }
func (s *benchSpout) Close() error                 { return nil }
func (s *benchSpout) NextTuple(col storm.Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	col.Emit(map[string]any{"k": s.i % 64, "v": s.i})
	s.i++
	return s.i < s.n, nil
}

type benchBolt struct{ drop bool }

func (bb *benchBolt) Prepare(storm.TaskContext) error { return nil }
func (bb *benchBolt) Cleanup() error                  { return nil }
func (bb *benchBolt) Execute(t storm.Tuple, col storm.Collector) error {
	if !bb.drop {
		col.Emit(t.Values)
	}
	return nil
}

func BenchmarkMapReduceWordCount(b *testing.B) {
	fs := dfs.New(dfs.Options{ChunkSize: 16 * 1024})
	for i := 0; i < 5000; i++ {
		if err := fs.AppendLine("in/doc", fmt.Sprintf("w%d w%d w%d", i%7, i%13, i%29)); err != nil {
			b.Fatal(err)
		}
	}
	cfg := mapreduce.Config{
		FS: fs, InputPaths: []string{"in/doc"},
		Mapper: func(_ int64, line string, emit func(k, v string)) error {
			start := 0
			for i := 0; i <= len(line); i++ {
				if i == len(line) || line[i] == ' ' {
					if i > start {
						emit(line[start:i], "1")
					}
					start = i + 1
				}
			}
			return nil
		},
		Reducer: func(key string, values []string, emit func(k, v string)) error {
			emit(key, fmt.Sprint(len(values)))
			return nil
		},
		NumReducers: 4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.OutputPath = fmt.Sprintf("out/wc%d", i)
		if _, err := mapreduce.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationSpatialIndex compares per-point location resolution of
// the Region Quadtree against a uniform grid of comparable area count, and
// reports the load imbalance each induces over a centre-skewed city — why
// §4.1.1 adopts the quadtree.
func BenchmarkAblationSpatialIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var pts []geo.Point
	for i := 0; i < 4096; i++ {
		if i%4 == 0 {
			pts = append(pts, geo.Point{
				Lat: geo.Dublin.MinLat + rng.Float64()*(geo.Dublin.MaxLat-geo.Dublin.MinLat),
				Lon: geo.Dublin.MinLon + rng.Float64()*(geo.Dublin.MaxLon-geo.Dublin.MinLon),
			})
		} else {
			pts = append(pts, geo.Point{
				Lat: geo.DublinCenter.Lat + rng.NormFloat64()*0.01,
				Lon: geo.DublinCenter.Lon + rng.NormFloat64()*0.015,
			})
		}
	}
	b.Run("quadtree", func(b *testing.B) {
		tree, err := quadtree.Build(geo.Dublin, pts[:1024], quadtree.Options{MaxPoints: 16, MaxDepth: 9})
		if err != nil {
			b.Fatal(err)
		}
		counts := map[string]int{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			leaf := tree.Locate(pts[i%len(pts)])
			if leaf == nil {
				b.Fatal("miss")
			}
			counts[string(leaf.ID)]++
		}
		b.StopTimer()
		b.ReportMetric(float64(len(tree.Leaves())), "areas")
	})
	b.Run("uniform-grid", func(b *testing.B) {
		g, err := grid.New(geo.Dublin, 16, 16)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if g.Locate(pts[i%len(pts)]) == "" {
				b.Fatal("miss")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(g.Cells()), "areas")
		b.ReportMetric(g.LoadImbalance(pts), "load-imbalance")
	})
}

// BenchmarkAblationWeightedRules measures Equation 2's rule weights: giving
// the heavy grouping a high weight shifts engines toward it, raising its
// modelled throughput versus the unweighted allocation.
func BenchmarkAblationWeightedRules(b *testing.B) {
	spec := cluster.SyntheticSpatial(60000)
	model := core.DefaultLatencyModel()
	// Two otherwise identical groupings: the operator marks one's rules
	// as more important. With weight 1 the greedy split is symmetric;
	// with weight 10 the weighted grouping's score gains dominate.
	mk := func(weight float64) []core.LayerGroup {
		a := cluster.TemplateRules("a", []string{busdata.AttrDelay}, []int{100}, core.QuadtreeLeaves, 0)
		for i := range a {
			a[i].Weight = weight
		}
		bRules := cluster.TemplateRules("b", []string{busdata.AttrSpeed}, []int{100}, core.QuadtreeLeaves, 0)
		return []core.LayerGroup{
			{Name: "weighted", Rules: a, Regions: spec.Leaves},
			{Name: "plain", Rules: bRules, Regions: spec.Leaves},
		}
	}
	var plain, weighted *core.Allocation
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, err = core.AllocateEngines(mk(1), 12, model)
		if err != nil {
			b.Fatal(err)
		}
		weighted, err = core.AllocateEngines(mk(10), 12, model)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plain.EnginesOf["weighted"]), "weighted-engines-w1")
	b.ReportMetric(float64(weighted.EnginesOf["weighted"]), "weighted-engines-w10")
}
