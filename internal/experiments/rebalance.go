package experiments

import (
	"fmt"
	"time"

	"trafficcep/internal/core"
)

// SkewShiftConfig parameterizes the skew-shift recovery experiment.
type SkewShiftConfig struct {
	Locations int     // spatial locations in the grid (default 16)
	Engines   int     // Esper engines (default 4)
	HotRate   int     // tuples per window from a hotspot location (default 80)
	ColdRate  int     // tuples per window elsewhere (default 5)
	Threshold float64 // rebalance skew trigger, max/mean (default 1.5)
	WindowsB  int     // evening-phase estimation windows to run (default 4)
}

func (c *SkewShiftConfig) defaults() {
	if c.Locations <= 0 {
		c.Locations = 16
	}
	if c.Engines <= 0 {
		c.Engines = 4
	}
	if c.HotRate <= 0 {
		c.HotRate = 80
	}
	if c.ColdRate <= 0 {
		c.ColdRate = 5
	}
	if c.Threshold <= 1 {
		c.Threshold = 1.5
	}
	if c.WindowsB <= 0 {
		c.WindowsB = 4
	}
}

// SkewShiftResult compares static routing against live rebalancing after a
// mid-run hotspot move.
type SkewShiftResult struct {
	Threshold float64
	// StaticSkew is the max/mean per-engine input rate of the final
	// evening window under the never-updated morning routing table.
	StaticSkew float64
	// RebalancedSkew is the same measurement with the Rebalancer active.
	RebalancedSkew float64
	// Swaps and Moves count the rebalancing activity.
	Swaps, Moves int
	// RebalanceDuration is the wall-clock cost of the cycle that swapped.
	RebalanceDuration time.Duration
}

// SkewShift is the deterministic skew-shift recovery experiment closing the
// dynamic loop of §4.2.1: routing is partitioned for a morning rush-hour
// hotspot; mid-run the hotspot moves onto locations the morning table packs
// onto a single engine. Static routing funnels the whole hotspot into that
// engine; the Rebalancer detects the skew from its live rate estimators,
// re-runs Algorithm 1 and swaps the routing table, restoring max/mean below
// the trigger threshold.
func SkewShift(cfg SkewShiftConfig) (SkewShiftResult, error) {
	cfg.defaults()
	locs := make([]string, cfg.Locations)
	for i := range locs {
		locs[i] = fmt.Sprintf("q%02d", i)
	}

	// Morning phase: the first `Engines` locations are hot; Algorithm 1
	// balances them one per engine.
	morning := make([]core.RegionRate, len(locs))
	for i, l := range locs {
		r := float64(cfg.ColdRate)
		if i < cfg.Engines {
			r = float64(cfg.HotRate)
		}
		morning[i] = core.RegionRate{Location: l, Rate: r}
	}
	buildTable := func() (*core.RoutingTable, *core.Partition, error) {
		part, err := core.PartitionRegions(morning, cfg.Engines)
		if err != nil {
			return nil, nil, err
		}
		table := core.NewRoutingTable(core.RouteByLocation, cfg.Engines)
		tasks := make([]int, cfg.Engines)
		for i := range tasks {
			tasks[i] = i
		}
		if err := table.AddPartition("leafArea", part, tasks); err != nil {
			return nil, nil, err
		}
		return table, part, nil
	}
	staticTable, part, err := buildTable()
	if err != nil {
		return SkewShiftResult{}, err
	}
	rebTable, _, err := buildTable()
	if err != nil {
		return SkewShiftResult{}, err
	}

	// Evening phase: the cold locations the morning table packed onto
	// engine 0 heat up together — a worst case for static routing.
	hot := make(map[string]bool)
	for _, r := range part.Engines[0] {
		if r.Rate == float64(cfg.ColdRate) {
			hot[r.Location] = true
		}
	}
	if len(hot) == 0 {
		return SkewShiftResult{}, fmt.Errorf("experiments: engine 0 holds no cold locations; increase Locations")
	}
	eveningRate := func(loc string) int {
		if hot[loc] {
			return cfg.HotRate
		}
		return cfg.ColdRate
	}

	reb, err := core.NewRebalancer(core.RebalancerConfig{
		Routing:       rebTable,
		SkewThreshold: cfg.Threshold,
	})
	if err != nil {
		return SkewShiftResult{}, err
	}

	res := SkewShiftResult{Threshold: cfg.Threshold}
	for w := 0; w < cfg.WindowsB; w++ {
		// One evening estimation window: feed both paths, then let the
		// rebalancer close the window and check its trigger.
		staticCounts := make([]float64, cfg.Engines)
		rebCounts := make([]float64, cfg.Engines)
		for _, l := range locs {
			vals := map[string]any{"leafArea": l}
			for i := 0; i < eveningRate(l); i++ {
				for _, task := range staticTable.EnginesFor(vals) {
					staticCounts[task]++
				}
				reb.Observe(vals)
				for _, task := range reb.Table().EnginesFor(vals) {
					rebCounts[task]++
				}
			}
		}
		rep, err := reb.MaybeRebalance()
		if err != nil {
			return SkewShiftResult{}, err
		}
		if rep.Swapped {
			res.RebalanceDuration = rep.Duration
		}
		if w == cfg.WindowsB-1 {
			res.StaticSkew = maxOverMean(staticCounts)
			res.RebalancedSkew = maxOverMean(rebCounts)
		}
	}
	tot := reb.Totals()
	res.Swaps = int(tot.Swaps)
	res.Moves = int(tot.Moves)
	return res, nil
}

// maxOverMean is the skew metric: max engine load over mean engine load.
func maxOverMean(counts []float64) float64 {
	if len(counts) == 0 {
		return 1
	}
	max, sum := 0.0, 0.0
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(counts)))
}
