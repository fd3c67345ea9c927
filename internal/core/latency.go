package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/regress"
)

// LatencyModel is the estimation model of §4.1.4 (Figure 7): three fitted
// regression functions that predict, in milliseconds,
//
//	Function 1 — a single rule's per-tuple latency from its window length l
//	             and the number of thresholds t it joins with (Table 3);
//	Function 2 — an engine's latency when two rules share it, from the two
//	             rules' individual latencies (Table 4), applied sequentially
//	             for more than two rules;
//	Function 3 — an engine's effective latency when co-located with other
//	             engines on one node (Table 5), from its own latency and the
//	             co-located engines' summed latency.
type LatencyModel struct {
	Fn1 *regress.Poly // inputs (l, t)
	Fn2 *regress.Poly // inputs (L1, L2)
	Fn3 *regress.Poly // inputs (own, sumOthers)
}

// RuleLatencyMs estimates a single rule's per-tuple latency (Function 1).
func (m *LatencyModel) RuleLatencyMs(window, thresholds float64) float64 {
	return clampNonNeg(m.Fn1.Predict([]float64{window, thresholds}))
}

// CombinedLatencyMs estimates an engine's latency when it runs all the
// given rules, folding Function 2 sequentially as §4.1.4 describes ("the
// output of this function will be fed again as its input").
func (m *LatencyModel) CombinedLatencyMs(ruleLatencies []float64) float64 {
	if len(ruleLatencies) == 0 {
		return 0
	}
	acc := ruleLatencies[0]
	for _, l := range ruleLatencies[1:] {
		acc = m.Fn2.Predict([]float64{acc, l})
	}
	return clampNonNeg(acc)
}

// EffectiveLatencyMs estimates an engine's latency when co-located with
// other engines on the same node (Function 3).
func (m *LatencyModel) EffectiveLatencyMs(own float64, others []float64) float64 {
	sum := 0.0
	for _, o := range others {
		sum += o
	}
	return clampNonNeg(m.Fn3.Predict([]float64{own, sum}))
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// DefaultLatencyModel returns an analytically seeded model used when no
// calibration run is available (unit tests, deterministic experiments):
//
//	Fn1: latency grows linearly in window length and threshold count;
//	Fn2: co-hosted rules are processed serially, with a small shared
//	     per-event dispatch saving;
//	Fn3: engines time-share a core, so the effective latency is the own
//	     latency plus the co-located engines' work.
//
// The coefficients are in milliseconds and were chosen to match the orders
// of magnitude measured by CalibrateLatencyModel on the reference machine.
func DefaultLatencyModel() *LatencyModel {
	return &LatencyModel{
		Fn1: polyFromCoef(2, []float64{0.020, 0.00115, 0.00002}),
		Fn2: polyFromCoef(2, []float64{0.010, 0.96, 0.90}),
		Fn3: polyFromCoef(2, []float64{0.0, 1.0, 0.95}),
	}
}

// polyFromCoef builds a first-order polynomial in nVars variables from
// [intercept, c1, ..., cn].
func polyFromCoef(nVars int, coef []float64) *regress.Poly {
	return &regress.Poly{NVars: nVars, Terms: regress.Monomials(nVars, 1), Coef: coef}
}

// CalibrationConfig sizes the measurement grid for CalibrateLatencyModel.
type CalibrationConfig struct {
	// Windows are the l values measured for Function 1.
	Windows []int
	// ThresholdCounts are the t values measured for Function 1.
	ThresholdCounts []int
	// EventsPerSample is how many bus events each measurement feeds.
	EventsPerSample int
	// Locations is the number of distinct spatial locations in the feed.
	Locations int
	// PairSamples is how many rule pairs to measure for Function 2.
	PairSamples int
	// ContentionEngines is the maximum co-located engine count measured
	// for Function 3.
	ContentionEngines int
}

// DefaultCalibration is a grid that completes in a few seconds.
func DefaultCalibration() CalibrationConfig {
	return CalibrationConfig{
		Windows:           []int{1, 10, 100, 1000},
		ThresholdCounts:   []int{1, 24, 96, 480},
		EventsPerSample:   800,
		Locations:         24,
		PairSamples:       8,
		ContentionEngines: 4,
	}
}

// CalibrateLatencyModel measures the real CEP engine and fits the three
// functions with first-order polynomials (the order §5.1 found superior).
// It returns the model plus the raw Function 1 samples so callers (the
// Figure 9 experiment) can compare fits of different orders.
func CalibrateLatencyModel(cfg CalibrationConfig) (*LatencyModel, *CalibrationData, error) {
	if len(cfg.Windows) == 0 || len(cfg.ThresholdCounts) == 0 {
		return nil, nil, fmt.Errorf("core: calibration grid is empty")
	}
	if cfg.EventsPerSample <= 0 {
		cfg.EventsPerSample = 500
	}
	if cfg.Locations <= 0 {
		cfg.Locations = 16
	}
	if cfg.PairSamples <= 0 {
		cfg.PairSamples = 6
	}
	if cfg.ContentionEngines <= 1 {
		cfg.ContentionEngines = 3
	}

	data := &CalibrationData{}

	// Function 1 samples: measure each (l, t) cell.
	for _, l := range cfg.Windows {
		for _, t := range cfg.ThresholdCounts {
			ms, err := MeasureRuleLatencyMs(l, t, cfg.Locations, cfg.EventsPerSample)
			if err != nil {
				return nil, nil, err
			}
			data.Fn1X = append(data.Fn1X, []float64{float64(l), float64(t)})
			data.Fn1Y = append(data.Fn1Y, ms)
		}
	}
	fn1, err := regress.FitPoly(data.Fn1X, data.Fn1Y, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("core: fitting Function 1: %w", err)
	}

	// Function 2 samples: pairs of rules measured solo and together.
	grid := []struct{ l, t int }{}
	for _, l := range cfg.Windows {
		grid = append(grid, struct{ l, t int }{l, cfg.ThresholdCounts[0]})
	}
	for i := 0; i < cfg.PairSamples; i++ {
		a := grid[i%len(grid)]
		b := grid[(i*2+1)%len(grid)]
		la, err := MeasureRuleLatencyMs(a.l, a.t, cfg.Locations, cfg.EventsPerSample)
		if err != nil {
			return nil, nil, err
		}
		lb, err := MeasureRuleLatencyMs(b.l, b.t, cfg.Locations, cfg.EventsPerSample)
		if err != nil {
			return nil, nil, err
		}
		both, err := MeasurePairLatencyMs(a.l, a.t, b.l, b.t, cfg.Locations, cfg.EventsPerSample)
		if err != nil {
			return nil, nil, err
		}
		data.Fn2X = append(data.Fn2X, []float64{la, lb})
		data.Fn2Y = append(data.Fn2Y, both)
	}
	fn2, err := regress.FitPoly(data.Fn2X, data.Fn2Y, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("core: fitting Function 2: %w", err)
	}

	// Function 3 samples: real CPU contention between concurrent workers
	// on a single core (the paper's VMs had 1 CPU each).
	x3, y3, err := measureContention(cfg.ContentionEngines)
	if err != nil {
		return nil, nil, err
	}
	data.Fn3X, data.Fn3Y = x3, y3
	fn3, err := regress.FitPoly(x3, y3, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("core: fitting Function 3: %w", err)
	}

	return &LatencyModel{Fn1: fn1, Fn2: fn2, Fn3: fn3}, data, nil
}

// CalibrationData keeps the raw measurement samples of a calibration run.
type CalibrationData struct {
	Fn1X [][]float64
	Fn1Y []float64
	Fn2X [][]float64
	Fn2Y []float64
	Fn3X [][]float64
	Fn3Y []float64
}

// buildMeasurementEngine creates an engine with the template rules
// installed as the product installs them — Listing 1 over a registered
// thresholds table — thresholds[i] thresholds in rules[i]'s table, ready to
// measure.
func buildMeasurementEngine(rules []Rule, thresholds []int, locations int) (*cep.Engine, error) {
	eng := cep.New()
	for i, r := range rules {
		// Spread t thresholds over the available locations and as many
		// hours as needed. Thresholds are set high so the rule's firing
		// path does not dominate the measurement.
		t := thresholds[i]
		rows := make([]map[string]cep.Value, 0, t)
		for h := 0; len(rows) < t; h++ {
			for loc := 0; loc < locations && len(rows) < t; loc++ {
				rows = append(rows, map[string]cep.Value{
					"location": locName(loc),
					"hour":     float64(h),
					"day":      busdata.Weekday.String(),
					"value":    1e12,
				})
			}
		}
		tab, err := cep.NewTable([]string{"location", "hour", "day", "value"}, 3, rows)
		if err != nil {
			return nil, err
		}
		if err := eng.RegisterTable(r.ThresholdStream(), tab); err != nil {
			return nil, err
		}
		if _, err := eng.AddStatement(r.Name, r.StreamEPL()); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

func locName(i int) string { return fmt.Sprintf("loc%03d", i) }

// feedMeasurementEvents sends n synthetic bus events round-robin over the
// locations and returns the mean per-event latency in milliseconds.
func feedMeasurementEvents(eng *cep.Engine, rules []Rule, locations, n int) (float64, error) {
	fields := make([]map[string]cep.Value, locations)
	for loc := 0; loc < locations; loc++ {
		f := map[string]cep.Value{
			"hour": 0.0,
			"day":  busdata.Weekday.String(),
		}
		for _, r := range rules {
			f[r.LocationField()] = locName(loc)
			f[r.Attribute] = 1.0
		}
		fields[loc] = f
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := eng.SendEvent(BusStream, fields[i%locations]); err != nil {
			return 0, err
		}
	}
	if n == 0 {
		return 0, nil
	}
	return float64(time.Since(start)) / float64(n) / float64(time.Millisecond), nil
}

// MeasureRuleLatencyMs measures one template rule's real per-tuple latency
// for a window length and threshold count — the data-gathering step behind
// Function 1.
func MeasureRuleLatencyMs(window, thresholds, locations, events int) (float64, error) {
	r := Rule{Name: "cal", Attribute: busdata.AttrDelay, Kind: BusStops, Window: window}
	eng, err := buildMeasurementEngine([]Rule{r}, []int{thresholds}, locations)
	if err != nil {
		return 0, err
	}
	return feedMeasurementEvents(eng, []Rule{r}, locations, events)
}

// MeasurePairLatencyMs measures an engine running two template rules — the
// data-gathering step behind Function 2.
func MeasurePairLatencyMs(l1, t1, l2, t2, locations, events int) (float64, error) {
	rules := pairRules(l1, l2)
	eng, err := buildMeasurementEngine(rules, []int{t1, t2}, locations)
	if err != nil {
		return 0, err
	}
	return feedMeasurementEvents(eng, rules, locations, events)
}

// pairRules are the two template rules of a Function 2 sample, with window
// lengths l1 and l2.
func pairRules(l1, l2 int) []Rule {
	return []Rule{
		{Name: "calA", Attribute: busdata.AttrDelay, Kind: BusStops, Window: l1},
		{Name: "calB", Attribute: busdata.AttrSpeed, Kind: BusStops, Window: l2},
	}
}

// measureContention measures real single-core time-sharing: E workers spin
// concurrently under GOMAXPROCS(1); each worker's mean wall time per unit of
// work grows with the co-located work. Samples are (ownSoloMs, othersSoloMs)
// → effectiveMs.
func measureContention(maxEngines int) ([][]float64, []float64, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	// Two workload sizes give the fit variation in the "own latency"
	// feature; engine counts give variation in the co-located work.
	var xs [][]float64
	var ys []float64
	for _, iters := range []int{6_000_000, 12_000_000} {
		solo := spinWallMs(1, iters)
		for e := 1; e <= maxEngines; e++ {
			eff := spinWallMs(e, iters)
			xs = append(xs, []float64{solo, float64(e-1) * solo})
			ys = append(ys, eff)
		}
	}
	return xs, ys, nil
}

// spinSink defeats dead-code elimination of the calibration spin loops.
var spinSink atomic.Uint64

// spinWallMs runs n concurrent spinners of the given iteration count and
// returns the mean wall time per spinner in milliseconds. A start barrier
// ensures the spinners genuinely overlap, so single-core contention shows
// up as wall-time inflation.
func spinWallMs(n int, iters int) float64 {
	var wg sync.WaitGroup
	start := make(chan struct{})
	times := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			t0 := time.Now()
			x := uint64(2463534242 + i)
			for k := 0; k < iters; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			spinSink.Add(x) // outside the timed region; only defeats DCE
			times[i] = time.Since(t0)
		}(i)
	}
	close(start)
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return float64(sum) / float64(n) / float64(time.Millisecond)
}
