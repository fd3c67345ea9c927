package core

import (
	"testing"
)

func TestMeasureRuleLatencyFlatInWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement")
	}
	small, err := MeasureRuleLatencyMs(1, 24, 12, 400)
	if err != nil {
		t.Fatal(err)
	}
	big, err := MeasureRuleLatencyMs(1000, 24, 12, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if small <= 0 || big <= 0 {
		t.Fatalf("latencies must be positive: %v, %v", small, big)
	}
	// With incremental evaluation the per-event cost no longer scales with
	// the window length: the 1000-tuple window must stay within an order
	// of magnitude of the 1-tuple window (generous headroom for timing
	// noise, not a growth curve).
	if big > small*10 {
		t.Fatalf("window=1000 latency %v not flat vs window=1 latency %v", big, small)
	}
}

// TestMeasurePairAtLeastAsExpensive: the engine a Function 2 sample times
// processes every event twice, once per rule — counted, not timed, so the
// check does not depend on the host's load.
func TestMeasurePairAtLeastAsExpensive(t *testing.T) {
	const events = 500
	rules := pairRules(100, 100)
	eng, err := buildMeasurementEngine(rules, []int{48, 48}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := feedMeasurementEvents(eng, rules, 12, events); err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		st, ok := eng.Statement(r.Name)
		if !ok {
			t.Fatalf("statement %s not installed", r.Name)
		}
		if got := st.Metrics().EventsIn; got != events {
			t.Errorf("statement %s took %d of %d events, want every event (one evaluation each)", r.Name, got, events)
		}
	}
}

func TestCalibrateLatencyModelSmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement")
	}
	cfg := CalibrationConfig{
		Windows:           []int{1, 100},
		ThresholdCounts:   []int{24, 96},
		EventsPerSample:   200,
		Locations:         12,
		PairSamples:       4,
		ContentionEngines: 2,
	}
	model, data, err := CalibrateLatencyModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Fn1X) != 4 {
		t.Fatalf("fn1 samples = %d", len(data.Fn1X))
	}
	if len(data.Fn2X) != 4 {
		t.Fatalf("fn2 samples = %d", len(data.Fn2X))
	}
	if len(data.Fn3X) < 3 {
		t.Fatalf("fn3 samples = %d", len(data.Fn3X))
	}
	// The fitted model must produce sane (non-negative, finite) outputs.
	if l := model.RuleLatencyMs(100, 48); l < 0 {
		t.Fatalf("rule latency = %v", l)
	}
	if l := model.CombinedLatencyMs([]float64{0.1, 0.2}); l < 0 {
		t.Fatalf("combined = %v", l)
	}
	if l := model.EffectiveLatencyMs(1, []float64{1}); l < 0 {
		t.Fatalf("effective = %v", l)
	}
	// Contention measured under GOMAXPROCS(1) must show co-location
	// cost. Probe the model at a measured operating point (the first
	// solo sample), not far outside the sampled range.
	own := data.Fn3X[0][0]
	solo := model.EffectiveLatencyMs(own, nil)
	shared := model.EffectiveLatencyMs(own, []float64{own})
	if shared <= solo {
		t.Fatalf("fn3: shared %v should exceed solo %v (own=%v)", shared, solo, own)
	}
}

func TestCalibrationValidation(t *testing.T) {
	if _, _, err := CalibrateLatencyModel(CalibrationConfig{}); err == nil {
		t.Fatal("empty grid must fail")
	}
}

func TestDefaultCalibrationShape(t *testing.T) {
	cfg := DefaultCalibration()
	if len(cfg.Windows) == 0 || len(cfg.ThresholdCounts) == 0 {
		t.Fatal("default grid must be non-empty")
	}
}
