package experiments

import (
	"fmt"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/sqlstore"
)

// measureStrategy runs one rule under a threshold-retrieval strategy on the
// live CEP engine and reports the mean per-tuple latency per reporting
// window plus the overall mean (milliseconds). Thresholds are set far above
// the fed values so the listener path does not pollute the retrieval
// comparison.
func measureStrategy(strat core.ThresholdStrategy, locations, events, windows int) ([]float64, float64, error) {
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		return nil, 0, err
	}
	// Thresholds for every location at every hour on both day types —
	// the full Listing 2 result set the paper's engines join with.
	var stats []sqlstore.StatRow
	for loc := 0; loc < locations; loc++ {
		for h := 0; h < 24; h++ {
			for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
				stats = append(stats, sqlstore.StatRow{
					Attribute: busdata.AttrDelay,
					Location:  fmt.Sprintf("area%03d", loc),
					Hour:      h, Day: day, Mean: 1e12, Stdv: 0,
				})
			}
		}
	}
	if err := store.Put(stats); err != nil {
		return nil, 0, err
	}

	rule := core.Rule{
		Name:        "fig10",
		Attribute:   busdata.AttrDelay,
		Kind:        core.QuadtreeLayer,
		Layer:       2,
		Window:      10,
		Sensitivity: 1,
	}
	eng := cep.New()
	if _, err := core.InstallRule(eng, rule, core.InstallOptions{
		Strategy:        strat,
		Store:           store,
		StaticThreshold: 1e12,
	}); err != nil {
		return nil, 0, err
	}

	// Each window's events are built before its send loop is timed.
	perWindow := make([]float64, windows)
	perWindowEvents := events / windows
	if perWindowEvents == 0 {
		perWindowEvents = 1
	}
	batch := make([]map[string]cep.Value, perWindowEvents)
	var total time.Duration
	sent := 0
	for w := 0; w < windows; w++ {
		for i := range batch {
			batch[i] = map[string]cep.Value{
				rule.LocationField(): fmt.Sprintf("area%03d", sent%locations),
				"hour":               float64(sent % 24),
				"day":                busdata.Weekday.String(),
				busdata.AttrDelay:    float64(sent % 300),
			}
			sent++
		}
		start := time.Now()
		for _, fields := range batch {
			if err := eng.SendEvent(core.BusStream, fields); err != nil {
				return nil, 0, err
			}
		}
		took := time.Since(start)
		total += took
		perWindow[w] = float64(took) / float64(perWindowEvents) / float64(time.Millisecond)
	}
	mean := float64(total) / float64(sent) / float64(time.Millisecond)
	return perWindow, mean, nil
}
