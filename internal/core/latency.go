package core

import (
	"fmt"
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

// DefaultLatencyModel returns the analytically seeded model that rule
// allocation, the cluster simulation and the model figures use:
//
//	Fn1: latency grows linearly in window length and threshold count;
//	Fn2: co-hosted rules are processed serially, with a small shared
//	     per-event dispatch saving;
//	Fn3: engines time-share a core, so the effective latency is the own
//	     latency plus the co-located engines' work.
//
// The coefficients are in milliseconds, chosen to match the orders of
// magnitude of MeasureRuleLatencyMs and MeasurePairLatencyMs on the
// reference machine.
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
