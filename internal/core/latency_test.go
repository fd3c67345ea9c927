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
