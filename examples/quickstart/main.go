// Quickstart: the smallest end-to-end use of the library.
//
// It generates a few minutes of synthetic Dublin bus traces, builds a
// quadtree over the city, runs one generic-template rule ("average delay in
// a leaf area above its dynamic threshold") on a single CEP engine inside
// the Figure 8 topology, and prints the detections.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A synthetic feed (the real dublinked.com dataset is proprietary;
	//    the generator reproduces its Table 2 shape).
	cfg := busdata.DefaultConfig()
	cfg.Buses, cfg.Lines = 120, 12
	gen, err := busdata.NewGenerator(cfg)
	if err != nil {
		return err
	}
	// Replay the morning rush hour, where the generator's congestion
	// regime drives central delays above the thresholds below.
	var traces []busdata.Trace
	start := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	for ts := start; ts.Before(start.Add(15 * time.Minute)); ts = ts.Add(cfg.ReportPeriod) {
		traces = append(traces, gen.Tick(ts)...)
	}
	fmt.Printf("generated %d traces from %d buses\n", len(traces), cfg.Buses)

	// 2. Spatial index: a Region Quadtree seeded with route geometry.
	var seeds []geo.Point
	for _, line := range gen.Lines() {
		seeds = append(seeds, line.Stops...)
	}
	tree, err := quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 6, MaxDepth: 7})
	if err != nil {
		return err
	}
	fmt.Printf("quadtree: %d leaves\n", len(tree.Leaves()))

	// 3. Thresholds: for the quickstart, mark "abnormal" as any positive
	//    average delay in the morning hours (mean 0, stdv 0, s=1).
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		return err
	}
	var stats []sqlstore.StatRow
	for _, leaf := range tree.Leaves() {
		for h := 0; h < 24; h++ {
			stats = append(stats, sqlstore.StatRow{
				Attribute: busdata.AttrDelay, Location: string(leaf.ID),
				Hour: h, Day: busdata.Weekday, Mean: 60, Stdv: 30,
			})
		}
	}
	if err := store.Put(stats); err != nil {
		return err
	}

	// 4. One rule from the paper's generic template (§3.3): fire when the
	//    10-tuple average delay in a leaf area exceeds mean + 1·stdv.
	rule := core.Rule{
		Name:        "leafDelay",
		Attribute:   busdata.AttrDelay,
		Kind:        core.QuadtreeLeaves,
		Window:      10,
		Sensitivity: 1,
	}

	// 5. Wire the Figure 8 topology with a single Esper engine.
	topo, err := core.BuildTrafficTopology(core.TrafficConfig{
		Traces:  traces,
		Tree:    tree,
		Engines: 1,
		DB:      db,
		EngineSetup: func(_ int, eng *cep.Engine) ([]*core.InstalledRule, error) {
			inst, err := core.InstallRule(eng, rule, core.InstallOptions{
				Strategy: core.StrategyStream, Store: store,
			})
			if err != nil {
				return nil, err
			}
			return []*core.InstalledRule{inst}, nil
		},
	})
	if err != nil {
		return err
	}
	rt, err := storm.New(topo)
	if err != nil {
		return err
	}
	if err := rt.Run(); err != nil {
		return err
	}

	// 6. Detections landed in the storage medium.
	rows, err := db.Query(`SELECT DISTINCT location FROM events`)
	if err != nil {
		return err
	}
	fmt.Printf("detected abnormal delay in %d areas (%d events total)\n",
		len(rows), db.Count(core.EventsTable))
	for i, r := range rows {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  area %v\n", r["location"])
	}
	return nil
}
