package busdata

import (
	"testing"
	"time"

	"trafficcep/internal/geo"
)

func testTrace() Trace {
	return Trace{
		Timestamp:  time.Date(2013, time.January, 2, 8, 30, 0, 0, time.UTC),
		LineID:     "L07",
		Direction:  true,
		Pos:        geo.Point{Lat: 53.35, Lon: -6.26},
		Delay:      42.5,
		Congestion: true,
		BusStop:    "L07-S03",
		VehicleID:  "V0123",
	}
}

// TestFillValuesSchema pins the payload to the exact 11-field schema the
// BusReader spout historically emitted via a map literal.
func TestFillValuesSchema(t *testing.T) {
	tr := testTrace()
	m := tr.FillValues(GetValues())
	want := map[string]any{
		"ts":         float64(tr.Timestamp.Unix()),
		"hour":       8.0,
		"day":        "weekday",
		"lineId":     "L07",
		"direction":  true,
		"lat":        53.35,
		"lon":        -6.26,
		"delay":      42.5,
		"congestion": 1.0,
		"busStop":    "L07-S03",
		"vehicleId":  "V0123",
	}
	if len(m) != len(want) {
		t.Fatalf("FillValues produced %d fields, want %d: %v", len(m), len(want), m)
	}
	for k, w := range want {
		if m[k] != w {
			t.Errorf("FillValues[%q] = %v, want %v", k, m[k], w)
		}
	}
}

// TestValuesRoomForEnrichedRow asserts the sizing GetValues promises: a
// map it returns takes every field the pipeline adds without growing, so
// filling it to rowFields entries allocates nothing beyond the map itself.
func TestValuesRoomForEnrichedRow(t *testing.T) {
	keys := make([]string, rowFields)
	for i := range keys {
		keys[i] = "field" + string(rune('A'+i))
	}
	var boxed any = 1.0
	empty := testing.AllocsPerRun(200, func() { _ = GetValues() })
	full := testing.AllocsPerRun(200, func() {
		m := GetValues()
		for _, k := range keys {
			m[k] = boxed
		}
	})
	if full != empty {
		t.Errorf("filling %d fields allocates %.1f/op, the empty map %.1f/op: the map grew", rowFields, full, empty)
	}
}

// BenchmarkTraceFillValues reports the cost of building one spout payload.
func BenchmarkTraceFillValues(b *testing.B) {
	tr := testTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.FillValues(GetValues())
	}
}
