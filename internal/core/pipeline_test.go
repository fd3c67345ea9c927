package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/denclue"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
)

// TestFullPaperPipeline wires every system of the paper together at once:
// synthetic feed → quadtree + DENCLUE bus stops → Figure 8 topology with
// partitioned rules on several engines → history folded into partials by
// both BusStopsTracker tasks → a batch run that refreshes thresholds while
// the stream is still flowing → detections in the storage medium.
func TestFullPaperPipeline(t *testing.T) {
	cfg := busdata.DefaultConfig()
	cfg.Buses, cfg.Lines = 150, 15
	gen, err := busdata.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rush-hour traffic so the centre actually misbehaves.
	var traces []busdata.Trace
	start := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	for ts := start; ts.Before(start.Add(20 * time.Minute)); ts = ts.Add(cfg.ReportPeriod) {
		traces = append(traces, gen.Tick(ts)...)
	}

	tree := buildTestTree(t)
	stops, err := denclue.Cluster(toObservations(gen.StopObservations(4)), denclue.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if stops.StopCount() == 0 {
		t.Fatal("no DENCLUE stops")
	}

	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	manager := &DynamicManager{Store: store}

	// Bootstrap thresholds so rules can install: very permissive (fire on
	// any positive delay) for leaves, and a speed rule on stops.
	var seed []sqlstore.StatRow
	for _, leaf := range tree.Leaves() {
		for h := 0; h < 24; h++ {
			seed = append(seed, sqlstore.StatRow{
				Attribute: busdata.AttrDelay, Location: string(leaf.ID),
				Hour: h, Day: busdata.Weekday, Mean: 0, Stdv: 0,
			})
		}
	}
	for i := 0; i < stops.StopCount(); i++ {
		for h := 0; h < 24; h++ {
			seed = append(seed, sqlstore.StatRow{
				Attribute: busdata.AttrSpeed, Location: stopName(i),
				Hour: h, Day: busdata.Weekday, Mean: 1e9, Stdv: 0, // speed never fires
			})
		}
	}
	if err := store.Put(seed); err != nil {
		t.Fatal(err)
	}

	rules := []Rule{
		{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 5, Sensitivity: 1},
		{Name: "stopSpeed", Attribute: busdata.AttrSpeed, Kind: BusStops, Window: 10, Sensitivity: 1},
	}

	const engines = 3
	est := NewRateEstimator(nil, 1)
	for _, tr := range traces {
		if leaf := tree.Locate(tr.Pos); leaf != nil {
			est.Observe(string(leaf.ID))
		}
	}
	part, err := PartitionRegions(est.Snapshot(), engines)
	if err != nil {
		t.Fatal(err)
	}
	stopPart, err := PartitionRegions(stopRates(stops), engines)
	if err != nil {
		t.Fatal(err)
	}
	routing := NewRoutingTable(RouteByLocation, engines)
	if err := routing.AddPartition("leafArea", part, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := routing.AddPartition("stopId", stopPart, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}

	topo, err := BuildTrafficTopology(TrafficConfig{
		Traces:  traces,
		Tree:    tree,
		Stops:   stops,
		Engines: engines,
		Routing: routing,
		DB:      db,
		Manager: manager,
		EngineSetup: func(task int, eng *cep.Engine) ([]*InstalledRule, error) {
			var out []*InstalledRule
			leafLocs := routing.Locations("leafArea", task)
			stopLocs := routing.Locations("stopId", task)
			for _, r := range rules {
				locs := leafLocs
				if r.Kind == BusStops {
					locs = stopLocs
				}
				inst, err := InstallRule(eng, r, InstallOptions{
					Strategy: StrategyStream, Store: store, Locations: locs,
				})
				if err != nil {
					return nil, err
				}
				out = append(out, inst)
			}
			return out, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := storm.New(topo)
	if err != nil {
		t.Fatal(err)
	}

	// Run the topology and, while the stream flows, run a batch cycle
	// over the accumulating history (the dynamic loop of §4.1.3).
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = rt.Run()
	}()
	var batchErr error
	batchRows := 0
	// The batch runs once both BusStopsTracker tasks have appended and more
	// than 500 records are in.
	var appendedAtBatch uint64
	appending := map[int]bool{}
	for i := 0; i < 5000; i++ {
		time.Sleep(200 * time.Microsecond)
		for _, task := range rt.Monitor().SnapshotNow().Components[CompBusStops].Tasks {
			if task.Executed > 0 {
				appending[task.TaskID] = true
			}
		}
		if appendedAtBatch = manager.historyRecs.Load(); appendedAtBatch > 500 && len(appending) == 2 {
			batchRows, batchErr = manager.RunOnce()
			break
		}
	}
	wg.Wait()

	if runErr != nil {
		t.Fatalf("topology run: %v", runErr)
	}
	if batchErr != nil {
		t.Fatalf("mid-run batch: %v", batchErr)
	}
	if batchRows == 0 {
		t.Fatal("batch never ran mid-stream (feed too fast?); increase trace volume")
	}
	if manager.Runs() != 1 {
		t.Fatalf("batch runs = %d", manager.Runs())
	}
	if appendedAtBatch >= uint64(len(traces)) {
		t.Fatalf("the batch ran after the last of %d history records was appended, not mid-stream", len(traces))
	}
	if got := manager.historyRecs.Load(); got != uint64(len(traces)) {
		t.Fatalf("history records = %d, want %d", got, len(traces))
	}
	if db.Count(EventsTable) == 0 {
		t.Fatal("no detections stored")
	}
	// Every detection must come from the delay rule (speed thresholds
	// were astronomically high before the refresh; after the refresh they
	// reflect observed speeds, so some stopSpeed firings may also occur —
	// but leafDelay must dominate and exist).
	rows, err := db.Query(`SELECT DISTINCT rule FROM events`)
	if err != nil {
		t.Fatal(err)
	}
	foundDelay := false
	for _, r := range rows {
		name, _ := r["rule"].(string)
		if strings.HasPrefix(name, "leafDelay") {
			foundDelay = true
		}
	}
	if !foundDelay {
		t.Fatalf("leafDelay never fired; rules seen: %v", rows)
	}
	// The monitor saw real work on every component.
	for _, tot := range rt.Monitor().TotalsByComponent() {
		if tot.Component == CompEsper && tot.Executed == 0 {
			t.Fatal("esper bolt executed nothing")
		}
	}
}

func toObservations(raw []busdata.StopObservation) []denclue.Observation {
	out := make([]denclue.Observation, len(raw))
	for i, r := range raw {
		out[i] = denclue.Observation{Pos: r.Pos, Line: r.Line, Direction: r.Direction, Heading: r.Heading}
	}
	return out
}

func stopName(i int) string { return "stop" + pad4(i) }

func pad4(i int) string {
	s := "000" + itoa10(i)
	return s[len(s)-4:]
}

func itoa10(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func stopRates(res *denclue.Result) []RegionRate {
	out := make([]RegionRate, 0, res.StopCount())
	for i, s := range res.Stops {
		out = append(out, RegionRate{Location: stopName(i), Rate: float64(s.Count)})
	}
	return out
}
