// Delay detection with dynamic thresholds — the paper's motivating scenario
// (§1): "in a traffic management system we may want to be able to detect
// when a bus is delayed ... using a pre-defined threshold at all times is
// not beneficial, as the behaviour of the traffic conditions typically
// change during the course of the day."
//
// This example builds the full dynamic loop: enriched traces fold into
// per-(area, hour, day-type) partials, each batch run turns them into mean
// and stdv statistics, the thresholds land in the storage medium, and the
// running rule adapts — an event that is abnormal at 3 am is normal at
// 8:30 am rush hour.
//
//	go run ./examples/delaydetection
package main

import (
	"fmt"
	"log"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/sqlstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		return err
	}
	manager := &core.DynamicManager{Store: store}

	// A week of history for the city-centre area: rush hour (08:00)
	// normally sees ~180 s delays, night (03:00) ~20 s.
	const area = "centre"
	day := time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)
	for d := 0; d < 5; d++ {
		for i := 0; i < 50; i++ {
			for _, h := range []struct {
				hour  int
				delay float64
			}{
				{8, 180 + float64(i%40)},
				{3, 20 + float64(i%10)},
			} {
				err := manager.AppendHistory(core.HistoryRecord{
					Hour: h.hour, Day: busdata.DayTypeOf(day.AddDate(0, 0, d)),
					StopID: "s1", Areas: []string{area},
					Delay: h.delay,
				})
				if err != nil {
					return err
				}
			}
		}
	}

	// Batch layer: statistics from the partials + storage-medium upsert.
	n, err := manager.RunOnce()
	if err != nil {
		return err
	}
	fmt.Printf("batch layer computed %d statistics rows\n", n)
	for _, h := range []int{3, 8} {
		v, ok, err := store.Lookup(busdata.AttrDelay, area, h, busdata.Weekday, 1)
		if err != nil {
			return err
		}
		fmt.Printf("  threshold @%02d:00 weekday: %.1f s (found=%v)\n", h, v, ok)
	}

	// A rule on the layer-0 area with the threshold-stream strategy.
	eng := cep.New()
	rule := core.Rule{
		Name: "centreDelay", Attribute: busdata.AttrDelay,
		Kind: core.QuadtreeLayer, Layer: 0, Window: 3, Sensitivity: 1,
	}
	inst, err := core.InstallRule(eng, rule, core.InstallOptions{
		Strategy: core.StrategyStream, Store: store,
	})
	if err != nil {
		return err
	}
	manager.Register(inst)
	fired := 0
	inst.AddListener(func(_ *cep.Statement, outs []cep.Output) { fired += len(outs) })

	send := func(hour int, delay float64) {
		err := eng.SendEvent(core.BusStream, map[string]cep.Value{
			"layer0Area": area, "hour": float64(hour),
			"day": busdata.Weekday.String(), "delay": delay,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	probe := func(hour int, delay float64) bool {
		fired = 0
		for i := 0; i < 3; i++ { // fill the 3-tuple window
			send(hour, delay)
		}
		return fired > 0
	}

	fmt.Println("\nsame 120 s delay, different hours:")
	fmt.Printf("  @03:00 -> abnormal=%v (night threshold is low)\n", probe(3, 120))
	fmt.Printf("  @08:00 -> abnormal=%v (rush hour makes 120 s normal)\n", probe(8, 120))

	// The environment changes: roadworks make rush hour much worse for a
	// while; the next batch run raises the threshold ("if a new road is
	// constructed the thresholds may be relaxed and the system should
	// adapt", §3.1).
	for i := 0; i < 400; i++ {
		err := manager.AppendHistory(core.HistoryRecord{
			Hour: 8, Day: busdata.Weekday, StopID: "s1",
			Areas: []string{area}, Delay: 400 + float64(i%60),
		})
		if err != nil {
			return err
		}
	}
	if _, err := manager.RunOnce(); err != nil {
		return err
	}
	v, _, err := store.Lookup(busdata.AttrDelay, area, 8, busdata.Weekday, 1)
	if err != nil {
		return err
	}
	fmt.Printf("\nafter roadworks history, rush-hour threshold rose to %.1f s\n", v)
	fmt.Printf("  @08:00 delay 250 s -> abnormal=%v (was abnormal before adaptation)\n", probe(8, 250))
	fmt.Printf("  @08:00 delay 600 s -> abnormal=%v\n", probe(8, 600))
	return nil
}
