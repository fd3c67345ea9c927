package core

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
)

// TestDistributedRebalanceNoDetectionLoss is the cross-process migration
// differential: the Figure-8 topology is split across two worker processes
// over TCP, every location starts on one engine, and one skew check run
// from the test goroutine must fix the skew mid-feed — handing ownership
// over on the Splitter's edges, across the wire to the remote engines,
// which load the gained locations' thresholds as they take them over —
// with the swap in before the Splitter's last tuple. With a window-1 rule
// every tuple yields exactly one detection, so the distributed rebalanced
// run must produce the identical detection multiset to a single-process
// balanced run: a swap across the process boundary loses nothing.
func TestDistributedRebalanceNoDetectionLoss(t *testing.T) {
	tree := buildTestTree(t)
	traces := genTraces(t, 40, 10)
	rule := Rule{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 1, Sensitivity: 1}
	const engines = 3
	const workers = 2

	leaves := tree.Leaves()
	allLocs := make(map[string]bool, len(leaves))
	var uniform []RegionRate
	for _, leaf := range leaves {
		allLocs[string(leaf.ID)] = true
		uniform = append(uniform, RegionRate{Location: string(leaf.ID), Rate: 1})
	}

	seedThresholds := func(t *testing.T) (*sqlstore.DB, *sqlstore.ThresholdStore) {
		t.Helper()
		db := sqlstore.NewDB()
		store, err := sqlstore.NewThresholdStore(db)
		if err != nil {
			t.Fatal(err)
		}
		var stats []sqlstore.StatRow
		for loc := range allLocs {
			for h := 0; h < 24; h++ {
				for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
					stats = append(stats, sqlstore.StatRow{
						Attribute: busdata.AttrDelay, Location: loc,
						Hour: h, Day: day, Mean: -1e6, Stdv: 0,
					})
				}
			}
		}
		if err := store.Put(stats); err != nil {
			t.Fatal(err)
		}
		return db, store
	}

	detections := func(t *testing.T, db *sqlstore.DB) map[string]int {
		t.Helper()
		rows, err := db.Query(`SELECT rule, location, observed, threshold FROM events`)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int, len(rows))
		for _, r := range rows {
			out[fmt.Sprintf("%v|%v|%v|%v", r["rule"], r["location"], r["observed"], r["threshold"])]++
		}
		return out
	}

	// Baseline: balanced static routing, one process.
	dbA, storeA := seedThresholds(t)
	partA, err := PartitionRegions(uniform, engines)
	if err != nil {
		t.Fatal(err)
	}
	tableA := NewRoutingTable(RouteByLocation, engines)
	if err := tableA.AddPartition("leafArea", partA, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	topoA, err := BuildTrafficTopology(TrafficConfig{
		Traces: traces, Tree: tree, Engines: engines, Routing: tableA, DB: dbA,
		EngineSetup: func(task int, eng *cep.Engine) ([]*InstalledRule, error) {
			locs := tableA.Locations("leafArea", task)
			if len(locs) == 0 {
				return nil, nil
			}
			inst, err := InstallRule(eng, rule, InstallOptions{Strategy: StrategyStream, Store: storeA, Locations: locs})
			if err != nil {
				return nil, err
			}
			return []*InstalledRule{inst}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rtA, err := storm.New(topoA)
	if err != nil {
		t.Fatal(err)
	}
	if err := rtA.Run(); err != nil {
		t.Fatal(err)
	}
	static := detections(t, dbA)
	if len(static) == 0 {
		t.Fatal("static run produced no detections")
	}

	// Distributed run: two symmetric workers, everything starting on
	// engine task 0. Each worker owns its own DB, threshold store and
	// rebalancer; ownership changes ride the data plane and nothing else
	// crosses between the workers. The feed is held at the BusReader after
	// its first quarter until the swap is in.
	gate := &gatedReader{at: len(traces) / 4, held: make(chan struct{}), open: make(chan struct{})}
	lns := make([]net.Listener, workers)
	peers := make([]string, workers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}

	skewed := func() *RoutingTable {
		p := &Partition{
			Engines:    make([][]RegionRate, engines),
			Rate:       make([]float64, engines),
			ByLocation: make(map[string]int, len(uniform)),
		}
		for _, r := range uniform {
			p.Engines[0] = append(p.Engines[0], r)
			p.Rate[0] += r.Rate
			p.ByLocation[r.Location] = 0
		}
		tb := NewRoutingTable(RouteByLocation, engines)
		if err := tb.AddPartition("leafArea", p, []int{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
		return tb
	}

	rts := make([]*storm.Runtime, workers)
	rebs := make([]*Rebalancer, workers)
	dbs := make([]*sqlstore.DB, workers)
	splitterWorker := -1
	workerOf := map[int]int{} // engine task → worker it was placed on
	for w := 0; w < workers; w++ {
		db, store := seedThresholds(t)
		dbs[w] = db
		reb, err := NewRebalancer(RebalancerConfig{
			Routing:       skewed(),
			SkewThreshold: 1.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		rebs[w] = reb
		reg := storm.NewRegistry()
		RegisterComponents(reg, &Deps{Config: TrafficConfig{
			Tree: tree, Rebalancer: reb, DB: db,
			EngineSetup: func(task int, eng *cep.Engine) ([]*InstalledRule, error) {
				locs := map[string]bool{}
				if task == 0 {
					locs = allLocs
				}
				inst, err := InstallRule(eng, rule, InstallOptions{Strategy: StrategyStream, Store: store, Locations: locs})
				if err != nil {
					return nil, err
				}
				return []*InstalledRule{inst}, nil
			},
		}})
		reg.RegisterSpout("busreader", func(map[string]string) (storm.SpoutFactory, error) {
			return func() storm.Spout { return gate.reader(traces) }, nil
		})
		xt, err := storm.ParseXML(TopologyXML)
		if err != nil {
			t.Fatal(err)
		}
		setParallelism(xt.Bolts, CompEsper, engines)
		topo, err := xt.Build(reg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := storm.New(topo, storm.WithWorker(w, peers), storm.WithListener(lns[w]))
		if err != nil {
			t.Fatal(err)
		}
		rts[w] = rt
		for _, p := range rt.Placements() {
			switch p.Component {
			case CompSplitter:
				splitterWorker = p.Worker
			case CompEsper:
				workerOf[p.TaskIndex] = p.Worker
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = rts[w].Run()
		}(w)
	}
	// Only the Splitter's worker observes the feed's rates, so only its
	// rebalancer cycles.
	splitterExecuted := func() uint64 {
		var n uint64
		for _, rt := range rts {
			n += componentTotal(rt, CompSplitter).Executed
		}
		return n
	}
	ready := func() bool { return splitterExecuted() >= uint64(gate.at/2) }
	rep := swapMidFeed(t, rebs[splitterWorker], gate.held, func() { close(gate.open) }, ready, splitterExecuted, len(traces))
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("distributed run did not drain")
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for _, reb := range rebs {
		reb.Stop()
	}

	// The splitter's rebalancer must have swapped mid-feed.
	var tot RebalanceTotals
	for _, reb := range rebs {
		r := reb.Totals()
		tot.Swaps += r.Swaps
		tot.Moves += r.Moves
	}
	if tot.Swaps < 1 || tot.Moves == 0 {
		t.Fatalf("no swap happened mid-feed: swaps=%d moves=%d", tot.Swaps, tot.Moves)
	}
	// Engine tasks are spread across both workers, so fixing a skew where
	// everything sits on one engine must hand locations to an engine in the
	// other process, and that engine must detect on one of them: it loaded
	// the thresholds itself.
	gained := map[string]bool{} // "task|location" gained at the swap
	for _, mv := range rep.Moves {
		for _, task := range mv.To {
			if !slices.Contains(mv.From, task) && workerOf[task] != splitterWorker {
				gained[fmt.Sprintf("%d|%s", task, mv.Location)] = true
			}
		}
	}
	if len(gained) == 0 {
		t.Fatalf("the swap moved no location to an engine off the Splitter's worker %d: %+v", splitterWorker, rep.Moves)
	}
	remote := 0
	for _, db := range dbs {
		rows, err := db.Query(`SELECT engine, location FROM events`)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if gained[fmt.Sprintf("%v|%v", r["engine"], r["location"])] {
				remote++
			}
		}
	}
	if remote == 0 {
		t.Fatal("no detection by an engine off the Splitter's worker on a location it gained at the swap")
	}

	merged := map[string]int{}
	for _, db := range dbs {
		for k, n := range detections(t, db) {
			merged[k] += n
		}
	}
	for k, n := range static {
		if merged[k] != n {
			t.Fatalf("detection %q: static %d, distributed %d", k, n, merged[k])
		}
	}
	for k, n := range merged {
		if static[k] != n {
			t.Fatalf("extra detection %q in distributed run: %d vs %d", k, n, static[k])
		}
	}
}

// gatedReader holds the feed: the BusReader spout it builds emits the
// first `at` traces, closes held, and then emits nothing until open is
// closed. A held call returns without a tuple rather than block, so the
// spout's executor still flushes its output batch: every trace before the
// gate reaches the Splitter.
type gatedReader struct {
	at         int
	held, open chan struct{}
}

func (g *gatedReader) reader(traces []busdata.Trace) storm.Spout {
	return &gatedSpout{busReaderSpout: busReaderSpout{traces: traces}, gate: g}
}

type gatedSpout struct {
	busReaderSpout
	gate *gatedReader
	shut bool
}

func (s *gatedSpout) NextTuple(col storm.Collector) (bool, error) {
	if s.idx == s.gate.at {
		if !s.shut {
			s.shut = true
			close(s.gate.held)
		}
		select {
		case <-s.gate.open:
		case <-time.After(100 * time.Microsecond):
			return true, nil
		}
	}
	return s.busReaderSpout.NextTuple(col)
}
