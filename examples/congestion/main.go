// Congestion hotspots across quadtree layers on multiple engines.
//
// This example exercises the scalability machinery: ten rules monitor speed
// and congestion at two quadtree granularities, Algorithm 1 partitions the
// areas over four Esper engines, the Splitter routes each tuple only to the
// engines owning its areas, and the run reports per-engine load plus the
// hottest detected areas — the DCC requirement of "identify[ing] the
// spatial locations where the traffic behavior ... exceeds the expected
// normal behaviour" (§3.1).
//
//	go run ./examples/congestion
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

const engines = 4

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := busdata.DefaultConfig()
	cfg.Buses, cfg.Lines = 300, 30
	gen, err := busdata.NewGenerator(cfg)
	if err != nil {
		return err
	}
	// Morning rush hour: the generator's centre-skewed congestion is at
	// its worst around 08:30.
	var traces []busdata.Trace
	start := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	for ts := start; ts.Before(start.Add(20 * time.Minute)); ts = ts.Add(cfg.ReportPeriod) {
		traces = append(traces, gen.Tick(ts)...)
	}
	fmt.Printf("replaying %d rush-hour traces\n", len(traces))

	var seeds []geo.Point
	for _, line := range gen.Lines() {
		seeds = append(seeds, line.Stops...)
	}
	tree, err := quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 12, MaxDepth: 5})
	if err != nil {
		return err
	}

	// Thresholds: "congested" when the windowed congestion-flag average
	// tops 0.5, "slow" when average speed beats the area's norm downward
	// — encoded as statistics rows so all rules use the Listing 2 path.
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		return err
	}
	var stats []sqlstore.StatRow
	for _, leaf := range tree.Leaves() {
		for h := 0; h < 24; h++ {
			stats = append(stats,
				sqlstore.StatRow{Attribute: busdata.AttrCongestion, Location: string(leaf.ID),
					Hour: h, Day: busdata.Weekday, Mean: 0.5, Stdv: 0},
				sqlstore.StatRow{Attribute: busdata.AttrDelay, Location: string(leaf.ID),
					Hour: h, Day: busdata.Weekday, Mean: 120, Stdv: 60},
			)
		}
	}
	if err := store.Put(stats); err != nil {
		return err
	}

	rules := []core.Rule{
		{Name: "congestionFlag", Attribute: busdata.AttrCongestion, Kind: core.QuadtreeLeaves, Window: 20, Sensitivity: 0},
		{Name: "delayHotspot", Attribute: busdata.AttrDelay, Kind: core.QuadtreeLeaves, Window: 20, Sensitivity: 1},
	}

	// Algorithm 1: balance the leaves over the engines by historical
	// rate (estimated here from the feed itself).
	est := core.NewRateEstimator(nil, 1)
	for _, tr := range traces {
		if leaf := tree.Locate(tr.Pos); leaf != nil {
			est.Observe(string(leaf.ID))
		}
	}
	part, err := core.PartitionRegions(est.Snapshot(), engines)
	if err != nil {
		return err
	}
	fmt.Printf("partitioned %d active leaves over %d engines (imbalance %.2f)\n",
		len(part.ByLocation), engines, part.Imbalance())

	routing := core.NewRoutingTable(core.RouteByLocation, engines)
	allTasks := make([]int, engines)
	for i := range allTasks {
		allTasks[i] = i
	}
	if err := routing.AddPartition("leafArea", part, allTasks); err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	topo, err := core.BuildTrafficTopology(core.TrafficConfig{
		Traces: traces, Tree: tree, Engines: engines, Routing: routing, DB: db,
		Telemetry: reg,
		EngineSetup: func(task int, eng *cep.Engine) ([]*core.InstalledRule, error) {
			locs := map[string]bool{}
			for _, r := range part.Engines[task] {
				locs[r.Location] = true
			}
			var out []*core.InstalledRule
			for _, rule := range rules {
				inst, err := core.InstallRule(eng, rule, core.InstallOptions{
					Store: store, Locations: locs,
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
		return err
	}
	rt, err := storm.New(topo, storm.WithTelemetry(reg))
	if err != nil {
		return err
	}
	if err := rt.Run(); err != nil {
		return err
	}

	// Per-engine load and end-to-end latency from one telemetry walk (the
	// paper's per-task metrics, registry-backed).
	snap := reg.Gather()
	for i := 0; i < engines; i++ {
		if m, ok := snap.Get(fmt.Sprintf("cep.engine%d.events_in", i)); ok {
			fmt.Printf("engine %d processed %.0f tuples\n", i, m.Value)
		}
	}
	if m, ok := snap.Get("storm." + core.CompStorer + ".e2e_latency_ns"); ok && m.Histogram != nil {
		fmt.Printf("end-to-end tuple latency: p50=%v p99=%v\n",
			time.Duration(m.Histogram.P50), time.Duration(m.Histogram.P99))
	}

	// Hottest areas by detection count.
	rows, err := db.Query(`SELECT rule, location FROM events`)
	if err != nil {
		return err
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[fmt.Sprintf("%v @ %v", r["rule"], r["location"])]++
	}
	type kv struct {
		key string
		n   int
	}
	var ranked []kv
	for k, n := range counts {
		ranked = append(ranked, kv{k, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].key < ranked[j].key
	})
	fmt.Printf("\n%d detections; hottest area/rule pairs:\n", len(rows))
	for i, e := range ranked {
		if i == 8 {
			break
		}
		fmt.Printf("  %-40s %d firings\n", e.key, e.n)
	}
	return nil
}
