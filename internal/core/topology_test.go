package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
)

// buildTestTree returns a small quadtree over Dublin.
func buildTestTree(t testing.TB) *quadtree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var seeds []geo.Point
	for i := 0; i < 64; i++ {
		seeds = append(seeds, geo.Point{
			Lat: geo.Dublin.MinLat + rng.Float64()*(geo.Dublin.MaxLat-geo.Dublin.MinLat),
			Lon: geo.Dublin.MinLon + rng.Float64()*(geo.Dublin.MaxLon-geo.Dublin.MinLon),
		})
	}
	tree, err := quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func genTraces(t testing.TB, buses, minutes int) []busdata.Trace {
	t.Helper()
	cfg := busdata.DefaultConfig()
	cfg.Buses = buses
	cfg.Lines = 5
	g, err := busdata.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate(time.Duration(minutes) * time.Minute)
}

func TestRoutingTable(t *testing.T) {
	p, err := PartitionRegions([]RegionRate{
		{Location: "a", Rate: 3}, {Location: "b", Rate: 2}, {Location: "c", Rate: 1},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRoutingTable(RouteByLocation, 4)
	// Grouping owns EsperBolt tasks 1 and 3.
	if err := rt.AddPartition("leafArea", p, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	engines := rt.EnginesFor(map[string]any{"leafArea": "a"})
	if len(engines) != 1 {
		t.Fatalf("engines = %v", engines)
	}
	if e := engines[0]; e != 1 && e != 3 {
		t.Fatalf("engine %d not in grouping's task set", e)
	}
	if got := rt.EnginesFor(map[string]any{"leafArea": "unknown"}); len(got) != 0 {
		t.Fatalf("unknown location should route nowhere, got %v", got)
	}
	if got := rt.EnginesFor(map[string]any{}); len(got) != 0 {
		t.Fatalf("missing field should route nowhere, got %v", got)
	}
}

func TestRoutingTableAllMode(t *testing.T) {
	rt := NewRoutingTable(RouteAll, 3)
	got := rt.EnginesFor(map[string]any{})
	if len(got) != 3 {
		t.Fatalf("all mode engines = %v", got)
	}
}

func TestRoutingTableMultipleFields(t *testing.T) {
	pa, _ := PartitionRegions([]RegionRate{{Location: "x", Rate: 1}}, 1)
	pb, _ := PartitionRegions([]RegionRate{{Location: "s1", Rate: 1}}, 1)
	rt := NewRoutingTable(RouteByLocation, 2)
	if err := rt.AddPartition("leafArea", pa, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddPartition("stopId", pb, []int{1}); err != nil {
		t.Fatal(err)
	}
	got := rt.EnginesFor(map[string]any{"leafArea": "x", "stopId": "s1"})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("engines = %v", got)
	}
}

func TestRoutingTableBadMapping(t *testing.T) {
	p, _ := PartitionRegions([]RegionRate{{Location: "x", Rate: 1}}, 1)
	rt := NewRoutingTable(RouteByLocation, 2)
	if err := rt.AddPartition("f", p, []int{5}); err == nil {
		t.Error("out-of-range task must fail")
	}
	if err := rt.AddPartition("f", p, []int{0, 1}); err == nil {
		t.Error("wrong mapping length must fail")
	}
}

func TestTrafficTopologyEndToEnd(t *testing.T) {
	tree := buildTestTree(t)
	traces := genTraces(t, 40, 10)

	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	// Seed thresholds: delay threshold 0 for every leaf area at every
	// hour, so high-delay traffic must fire.
	var stats []sqlstore.StatRow
	for _, leaf := range tree.Leaves() {
		for h := 0; h < 24; h++ {
			for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
				stats = append(stats, sqlstore.StatRow{
					Attribute: busdata.AttrDelay, Location: string(leaf.ID),
					Hour: h, Day: day, Mean: -1e6, Stdv: 0,
				})
			}
		}
	}
	if err := store.Put(stats); err != nil {
		t.Fatal(err)
	}

	rule := Rule{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 5, Sensitivity: 1}

	const engines = 3
	var regions []RegionRate
	for _, leaf := range tree.Leaves() {
		regions = append(regions, RegionRate{Location: string(leaf.ID), Rate: 1})
	}
	part, err := PartitionRegions(regions, engines)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRoutingTable(RouteByLocation, engines)
	if err := rt.AddPartition("leafArea", part, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}

	topo, err := BuildTrafficTopology(TrafficConfig{
		Traces:  traces,
		Tree:    tree,
		Engines: engines,
		Routing: rt,
		DB:      db,
		EngineSetup: func(taskIndex int, eng *cep.Engine) ([]*InstalledRule, error) {
			locs := make(map[string]bool)
			for _, r := range part.Engines[taskIndex] {
				locs[r.Location] = true
			}
			inst, err := InstallRule(eng, rule, InstallOptions{
				Strategy: StrategyStream, Store: store, Locations: locs,
			})
			if err != nil {
				return nil, err
			}
			return []*InstalledRule{inst}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime, err := storm.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := runtime.Run(); err != nil {
		t.Fatal(err)
	}

	totals := runtime.Monitor().TotalsByComponent()
	byComp := map[string]storm.ComponentTotal{}
	for _, tot := range totals {
		byComp[tot.Component] = tot
	}
	if byComp[CompPreProcess].Executed != uint64(len(traces)) {
		t.Fatalf("preprocess executed %d, want %d", byComp[CompPreProcess].Executed, len(traces))
	}
	// Routed-by-location: the EsperBolt sees each tuple once.
	if byComp[CompEsper].Executed != uint64(len(traces)) {
		t.Fatalf("esper executed %d, want %d", byComp[CompEsper].Executed, len(traces))
	}
	// With a floor threshold, detections must flow to the storer.
	if db.Count(EventsTable) == 0 {
		t.Fatal("no detected events stored")
	}
	if byComp[CompStorer].Executed == 0 {
		t.Fatal("storer executed nothing")
	}
}

func TestTrafficTopologyAllGroupingMultipliesLoad(t *testing.T) {
	tree := buildTestTree(t)
	traces := genTraces(t, 20, 5)
	const engines = 4

	run := func(mode RoutingMode) uint64 {
		rt := NewRoutingTable(mode, engines)
		if mode == RouteByLocation {
			var regions []RegionRate
			for _, leaf := range tree.Leaves() {
				regions = append(regions, RegionRate{Location: string(leaf.ID), Rate: 1})
			}
			part, err := PartitionRegions(regions, engines)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.AddPartition("leafArea", part, []int{0, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
		topo, err := BuildTrafficTopology(TrafficConfig{
			Traces: traces, Tree: tree, Engines: engines, Routing: rt,
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime, err := storm.New(topo)
		if err != nil {
			t.Fatal(err)
		}
		if err := runtime.Run(); err != nil {
			t.Fatal(err)
		}
		for _, tot := range runtime.Monitor().TotalsByComponent() {
			if tot.Component == CompEsper {
				return tot.Executed
			}
		}
		return 0
	}

	ours := run(RouteByLocation)
	all := run(RouteAll)
	if ours != uint64(len(traces)) {
		t.Fatalf("routed executed %d, want %d", ours, len(traces))
	}
	if all != uint64(len(traces)*engines) {
		t.Fatalf("all-grouping executed %d, want %d", all, len(traces)*engines)
	}
}

func TestTrafficTopologyHistoryWritten(t *testing.T) {
	tree := buildTestTree(t)
	traces := genTraces(t, 10, 3)
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m := &DynamicManager{Store: store}
	topo, err := BuildTrafficTopology(TrafficConfig{
		Traces: traces, Tree: tree, Engines: 1, Manager: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime, err := storm.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := runtime.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.historyRecs.Load(); got != uint64(len(traces)) {
		t.Fatalf("history records = %d, want %d", got, len(traces))
	}
	// The batch layer can now compute statistics from what the topology
	// appended.
	if n, err := m.RunOnce(); err != nil || n == 0 {
		t.Fatalf("batch over topology history: n=%d err=%v", n, err)
	}
}

func TestTrafficTopologyRequiresTree(t *testing.T) {
	if _, err := BuildTrafficTopology(TrafficConfig{}); err == nil {
		t.Fatal("missing tree must fail")
	}
}

// traceSink counts the traces it receives by vehicle and timestamp: an
// idempotent sink, for which a replayed trace is the same trace.
type traceSink struct {
	mu   *sync.Mutex
	seen map[string]int
}

func traceKey(v map[string]any) string { return fmt.Sprint(v["vehicleId"], "@", v["ts"]) }

func (s traceSink) Prepare(storm.TaskContext) error { return nil }
func (s traceSink) Cleanup() error                  { return nil }
func (s traceSink) Execute(t storm.Tuple, _ storm.Collector) error {
	s.mu.Lock()
	s.seen[traceKey(t.Values)]++
	s.mu.Unlock()
	return nil
}

// TestBusReaderRecoversLostTrace: the sink fails one trace once, and must
// still end up with every trace of the feed under both reliability modes —
// xor by replaying the trace's tuple tree, epoch by rewinding the BusReader
// to its last committed checkpoint, which it can only do as a
// storm.ReplayableSpout.
func TestBusReaderRecoversLostTrace(t *testing.T) {
	traces := genTraces(t, 30, 5)
	want := map[string]bool{}
	for i := range traces {
		want[traceKey(traces[i].FillValues(map[string]any{}))] = true
	}
	if len(want) != len(traces) {
		t.Fatalf("%d traces share %d keys; the sink needs them distinct", len(traces), len(want))
	}
	victim := traces[len(traces)/2].VehicleID
	for _, mode := range []storm.AckMode{storm.AckXOR, storm.AckEpoch} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			sink := traceSink{mu: &sync.Mutex{}, seen: map[string]int{}}
			var tripped atomic.Bool
			b := storm.NewTopologyBuilder("busreader-replay")
			b.SetSpout(CompBusReader, func() storm.Spout { return &busReaderSpout{traces: traces} }, 2, 2)
			b.SetBolt("sink", func() storm.Bolt {
				return &failOnceBolt{Bolt: sink, vehicle: victim, tripped: &tripped}
			}, 2, 2).ShuffleGrouping(CompBusReader)
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := []storm.Option{storm.WithAckMode(mode), storm.WithAckTimeout(500 * time.Millisecond),
				storm.WithFailurePolicy(storm.Degrade), storm.WithBatchSize(8)}
			if mode == storm.AckEpoch {
				opts = append(opts, storm.WithEpochInterval(5*time.Millisecond))
			}
			rt, err := storm.New(topo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if !tripped.Load() {
				t.Fatal("the forced failure never fired")
			}
			for k := range want {
				if sink.seen[k] == 0 {
					t.Errorf("trace %s never reached the sink", k)
				}
			}
			if len(sink.seen) != len(want) {
				t.Fatalf("sink saw %d distinct traces, want %d", len(sink.seen), len(want))
			}
		})
	}
}
