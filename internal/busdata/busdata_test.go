package busdata

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"trafficcep/internal/geo"
)

func TestCSVRoundTrip(t *testing.T) {
	in := Trace{
		Timestamp:  time.Date(2013, 1, 7, 8, 30, 0, 0, time.UTC),
		LineID:     "L46",
		Direction:  true,
		Pos:        geo.Point{Lat: 53.347210, Lon: -6.259001},
		Delay:      120.5,
		Congestion: true,
		BusStop:    "L46-S03",
		VehicleID:  "V0032",
	}
	var out Trace
	if err := out.UnmarshalCSV(in.MarshalCSV()); err != nil {
		t.Fatal(err)
	}
	if !out.Timestamp.Equal(in.Timestamp) || out.LineID != in.LineID ||
		out.Direction != in.Direction || out.Delay != in.Delay ||
		out.Congestion != in.Congestion || out.BusStop != in.BusStop ||
		out.VehicleID != in.VehicleID {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if math.Abs(out.Pos.Lat-in.Pos.Lat) > 1e-6 || math.Abs(out.Pos.Lon-in.Pos.Lon) > 1e-6 {
		t.Fatalf("position mismatch: %v vs %v", out.Pos, in.Pos)
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(unix int64, delay float64, dir, cong bool) bool {
		if math.IsNaN(delay) || math.IsInf(delay, 0) || math.Abs(delay) > 1e9 {
			return true
		}
		unix = unix % (1 << 40)
		if unix < 0 {
			unix = -unix
		}
		in := Trace{
			Timestamp:  time.Unix(unix, 0).UTC(),
			LineID:     "L01",
			Direction:  dir,
			Pos:        geo.DublinCenter,
			Delay:      delay,
			Congestion: cong,
			BusStop:    "s",
			VehicleID:  "v",
		}
		var out Trace
		if err := out.UnmarshalCSV(in.MarshalCSV()); err != nil {
			return false
		}
		return out.Timestamp.Equal(in.Timestamp) && out.Direction == dir &&
			out.Congestion == cong && math.Abs(out.Delay-delay) <= 0.05+1e-9*math.Abs(delay)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]string{
		{"1", "L", "1", "53.0", "-6.0", "0", "0", "s"},          // 8 fields
		{"x", "L", "1", "53.0", "-6.0", "0", "0", "s", "v"},     // bad ts
		{"1", "L", "maybe", "53.0", "-6.0", "0", "0", "s", "v"}, // bad dir
		{"1", "L", "1", "north", "-6.0", "0", "0", "s", "v"},    // bad lat
		{"1", "L", "1", "53.0", "west", "0", "0", "s", "v"},     // bad lon
		{"1", "L", "1", "53.0", "-6.0", "slow", "0", "s", "v"},  // bad delay
		{"1", "L", "1", "53.0", "-6.0", "0", "jam", "s", "v"},   // bad congestion
		{"1", "L", "1", "NaN", "-6.0", "0", "0", "s", "v"},      // non-finite lat
		{"1", "L", "1", "53.0", "-Inf", "0", "0", "s", "v"},     // non-finite lon
		{"1", "L", "1", "53.0", "-6.0", "NaN", "0", "s", "v"},   // non-finite delay
		{"1", "L", "1", "53.0", "-6.0", "+Inf", "0", "s", "v"},  // non-finite delay
	}
	for i, rec := range cases {
		var tr Trace
		if err := tr.UnmarshalCSV(rec); err == nil {
			t.Errorf("case %d: expected error for %v", i, rec)
		}
	}
}

func TestWriteReadCSV(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{
		Buses: 10, Lines: 3, ReportPeriod: 20 * time.Second,
		ServiceStart: 6, ServiceEnd: 3, StopsPerLine: 5, Seed: 1,
		StartDay: time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := g.Generate(5 * time.Minute)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, traces); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(traces) {
		t.Fatalf("read %d, wrote %d", len(back), len(traces))
	}
	for i := range back {
		if back[i].VehicleID != traces[i].VehicleID || !back[i].Timestamp.Equal(traces[i].Timestamp) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadCSVBadInput(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("only,three,fields\n")); err == nil {
		t.Fatal("expected error for malformed CSV")
	}
}

// FuzzReadCSV: ReadCSV never panics, and whatever it accepts survives
// WriteCSV → ReadCSV, with a second write byte-identical to the first
// (the written form is canonical). Seeds: a generator row, NaN and ±Inf
// fields, quoted commas and a record with the wrong field count.
func FuzzReadCSV(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Buses, cfg.Lines = 2, 1
	g, err := NewGenerator(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var gen bytes.Buffer
	if err := WriteCSV(&gen, g.Generate(time.Minute)[:2]); err != nil {
		f.Fatal(err)
	}
	f.Add(gen.String())
	f.Add("1,L,1,NaN,-6.0,0,0,s,v\n")
	f.Add("1,L,1,53.0,+Inf,0,0,s,v\n")
	f.Add("1,L,1,53.0,-6.0,-Inf,0,s,v\n")
	f.Add("1357545000,\"L,46\",0,53.347210,-6.259001,12.5,1,\"stop,7\",V0001\n")
	f.Add("1,L,1,53.0,-6.0,0,0,s\n")
	f.Fuzz(func(t *testing.T, in string) {
		traces, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteCSV(&first, traces); err != nil {
			t.Fatalf("accepted traces do not write: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written traces do not read back: %v\n%q", err, first.String())
		}
		if len(again) != len(traces) {
			t.Fatalf("%d traces read back as %d", len(traces), len(again))
		}
		if err := WriteCSV(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%q\n%q", first.String(), second.String())
		}
	})
}

func TestAttributeValue(t *testing.T) {
	e := Enriched{
		Trace:       Trace{Delay: 42, Congestion: true},
		SpeedKmh:    17.5,
		ActualDelay: -3,
	}
	cases := map[string]float64{
		AttrDelay:       42,
		AttrActualDelay: -3,
		AttrSpeed:       17.5,
		AttrCongestion:  1,
	}
	for attr, want := range cases {
		got, err := e.AttributeValue(attr)
		if err != nil {
			t.Fatalf("%s: %v", attr, err)
		}
		if got != want {
			t.Errorf("%s = %v, want %v", attr, got, want)
		}
	}
	if _, err := e.AttributeValue("nope"); err == nil {
		t.Error("expected error for unknown attribute")
	}
	e.Congestion = false
	if v, _ := e.AttributeValue(AttrCongestion); v != 0 {
		t.Errorf("congestion false = %v, want 0", v)
	}
}

func TestDayType(t *testing.T) {
	mon := time.Date(2013, 1, 7, 12, 0, 0, 0, time.UTC) // Monday
	sat := time.Date(2013, 1, 5, 12, 0, 0, 0, time.UTC) // Saturday
	sun := time.Date(2013, 1, 6, 12, 0, 0, 0, time.UTC) // Sunday
	if DayTypeOf(mon) != Weekday {
		t.Error("Monday should be weekday")
	}
	if DayTypeOf(sat) != Weekend || DayTypeOf(sun) != Weekend {
		t.Error("Sat/Sun should be weekend")
	}
	if Weekday.String() != "weekday" || Weekend.String() != "weekend" {
		t.Error("bad String()")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(GeneratorConfig{Buses: 0, Lines: 1, ReportPeriod: time.Second, StopsPerLine: 2}); err == nil {
		t.Error("0 buses should fail")
	}
	if _, err := NewGenerator(GeneratorConfig{Buses: 1, Lines: 1, ReportPeriod: 0, StopsPerLine: 2}); err == nil {
		t.Error("0 period should fail")
	}
	if _, err := NewGenerator(GeneratorConfig{Buses: 1, Lines: 1, ReportPeriod: time.Second, StopsPerLine: 1}); err == nil {
		t.Error("1 stop should fail")
	}
}

func TestGeneratorCalibration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Buses = 200 // scaled down for test speed, same per-bus rates
	cfg.Lines = 20
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := g.Generate(30 * time.Minute)
	props := Properties(traces)
	if props.Buses != 200 {
		t.Fatalf("buses = %d, want 200", props.Buses)
	}
	if props.Lines != 20 {
		t.Fatalf("lines = %d, want 20", props.Lines)
	}
	// Table 2: 3 tuples/min per bus.
	if props.TuplesPerMin < 2.7 || props.TuplesPerMin > 3.3 {
		t.Fatalf("tuples/min per bus = %v, want ~3", props.TuplesPerMin)
	}
}

func TestGeneratorInService(t *testing.T) {
	g, err := NewGenerator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)
	if !g.InService(day.Add(7 * time.Hour)) {
		t.Error("07:00 should be in service")
	}
	if !g.InService(day.Add(2 * time.Hour)) {
		t.Error("02:00 should be in service (overnight window)")
	}
	if g.InService(day.Add(4 * time.Hour)) {
		t.Error("04:00 should be out of service")
	}
	if len(g.Tick(day.Add(4*time.Hour))) != 0 {
		t.Error("tick outside service must produce no traces")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	gen := func() []Trace {
		cfg := DefaultConfig()
		cfg.Buses, cfg.Lines = 30, 5
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g.Generate(3 * time.Minute)
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorTracesInsideBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Buses, cfg.Lines = 50, 10
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range g.Generate(5 * time.Minute) {
		if !geo.Dublin.Contains(tr.Pos) {
			t.Fatalf("trace at %v outside Dublin bounds", tr.Pos)
		}
	}
}

func TestGeneratorCentreCongestion(t *testing.T) {
	// During morning rush, traces near the centre must show more delay
	// growth than suburban traces — the spatial skew the rules rely on.
	cfg := DefaultConfig()
	cfg.Buses, cfg.Lines = 400, 40
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC) // Monday 08:00
	type acc struct {
		sum float64
		n   int
	}
	var central, suburb acc
	pre := NewPreprocessor()
	for ts := day; ts.Before(day.Add(40 * time.Minute)); ts = ts.Add(cfg.ReportPeriod) {
		for _, tr := range g.Tick(ts) {
			e := pre.Process(tr)
			d := tr.Pos.DistanceMeters(geo.DublinCenter)
			if d < 3000 {
				central.sum += e.ActualDelay
				central.n++
			} else if d > 9000 {
				suburb.sum += e.ActualDelay
				suburb.n++
			}
		}
	}
	if central.n == 0 || suburb.n == 0 {
		t.Fatalf("no samples: central=%d suburb=%d", central.n, suburb.n)
	}
	cAvg, sAvg := central.sum/float64(central.n), suburb.sum/float64(suburb.n)
	if cAvg <= sAvg {
		t.Fatalf("central actual-delay %v should exceed suburban %v in rush hour", cAvg, sAvg)
	}
}

func TestPreprocessorSpeed(t *testing.T) {
	p := NewPreprocessor()
	t0 := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	a := Trace{Timestamp: t0, VehicleID: "v1", Pos: geo.Point{Lat: 53.35, Lon: -6.26}, Delay: 10}
	e := p.Process(a)
	if e.SpeedKmh != 0 || e.ActualDelay != 0 {
		t.Fatalf("first trace must have zero enrichment, got %+v", e)
	}
	// 20 seconds later, ~111 m north => ~20 km/h.
	b := a
	b.Timestamp = t0.Add(20 * time.Second)
	b.Pos = geo.Point{Lat: 53.351, Lon: -6.26}
	b.Delay = 25
	e = p.Process(b)
	if e.SpeedKmh < 18 || e.SpeedKmh > 22 {
		t.Fatalf("speed = %v, want ~20", e.SpeedKmh)
	}
	if e.ActualDelay != 15 {
		t.Fatalf("actual delay = %v, want 15", e.ActualDelay)
	}
	if geo.AngleDiffDegrees(e.Heading, 0) > 2 {
		t.Fatalf("heading = %v, want ~0 (north)", e.Heading)
	}
}

func TestPreprocessorGapReset(t *testing.T) {
	p := NewPreprocessor()
	t0 := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	a := Trace{Timestamp: t0, VehicleID: "v1", Pos: geo.DublinCenter, Delay: 5}
	p.Process(a)
	b := a
	b.Timestamp = t0.Add(10 * time.Minute) // beyond MaxGap
	b.Delay = 50
	e := p.Process(b)
	if e.SpeedKmh != 0 || e.ActualDelay != 0 {
		t.Fatalf("after gap, enrichment must reset, got %+v", e)
	}
}

func TestPreprocessorImplausibleSpeed(t *testing.T) {
	p := NewPreprocessor()
	t0 := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	a := Trace{Timestamp: t0, VehicleID: "v1", Pos: geo.Point{Lat: 53.30, Lon: -6.30}}
	p.Process(a)
	b := a
	b.Timestamp = t0.Add(20 * time.Second)
	b.Pos = geo.Point{Lat: 53.40, Lon: -6.10} // ~17 km in 20 s
	e := p.Process(b)
	if e.SpeedKmh != 0 {
		t.Fatalf("implausible jump should give speed 0, got %v", e.SpeedKmh)
	}
}

// TestPreprocessorOutOfOrderTrace: a trace whose timestamp is not after its
// vehicle's previous one gets no enrichment and is not kept as the previous
// trace, so the next trace is derived against the last in-order one; the
// preprocessor counts every such trace.
func TestPreprocessorOutOfOrderTrace(t *testing.T) {
	t0 := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		name string
		at   time.Duration // of the bad trace, relative to the first
	}{
		{"duplicate timestamp", 0},
		{"backwards", -30 * time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewPreprocessor()
			a := Trace{Timestamp: t0, VehicleID: "v1", Pos: geo.Point{Lat: 53.35, Lon: -6.26}, Delay: 10}
			p.Process(a)
			bad := Trace{Timestamp: t0.Add(c.at), VehicleID: "v1", Pos: geo.Point{Lat: 53.36, Lon: -6.26}, Delay: 500}
			if e := p.Process(bad); e.SpeedKmh != 0 || e.ActualDelay != 0 {
				t.Fatalf("bad trace enriched: speed %v, actual delay %v", e.SpeedKmh, e.ActualDelay)
			}
			// 20 s after a, ~111 m north of it: derived against a, not bad.
			next := Trace{Timestamp: t0.Add(20 * time.Second), VehicleID: "v1", Pos: geo.Point{Lat: 53.351, Lon: -6.26}, Delay: 25}
			e := p.Process(next)
			if e.SpeedKmh < 18 || e.SpeedKmh > 22 {
				t.Fatalf("speed = %v, want ~20 (against the last in-order trace)", e.SpeedKmh)
			}
			if e.ActualDelay != 15 {
				t.Fatalf("actual delay = %v, want 15 (against the last in-order trace)", e.ActualDelay)
			}
			// The bad trace again, now behind next too: two out of order.
			p.Process(bad)
			if n := p.OutOfOrder(); n != 2 {
				t.Fatalf("out-of-order count = %d, want 2", n)
			}
		})
	}
}

func TestPreprocessorPerVehicleState(t *testing.T) {
	p := NewPreprocessor()
	t0 := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	p.Process(Trace{Timestamp: t0, VehicleID: "v1", Pos: geo.DublinCenter, Delay: 0})
	p.Process(Trace{Timestamp: t0, VehicleID: "v2", Pos: geo.DublinCenter, Delay: 100})
	e := p.Process(Trace{Timestamp: t0.Add(20 * time.Second), VehicleID: "v1", Pos: geo.DublinCenter, Delay: 10})
	if e.ActualDelay != 10 {
		t.Fatalf("v1 actual delay = %v, want 10 (state must be per-vehicle)", e.ActualDelay)
	}
	if p.TrackedVehicles() != 2 {
		t.Fatalf("tracked = %d, want 2", p.TrackedVehicles())
	}
	p.Reset()
	if p.TrackedVehicles() != 0 {
		t.Fatal("reset must clear state")
	}
}

func TestStopObservationsCoverLines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Buses, cfg.Lines, cfg.StopsPerLine = 10, 4, 6
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := g.StopObservations(3)
	want := cfg.Lines * cfg.StopsPerLine * 2 * 3
	if len(obs) != want {
		t.Fatalf("observations = %d, want %d", len(obs), want)
	}
	lines := map[string]bool{}
	for _, o := range obs {
		lines[o.Line] = true
	}
	if len(lines) != cfg.Lines {
		t.Fatalf("lines covered = %d, want %d", len(lines), cfg.Lines)
	}
}

func TestSortTraces(t *testing.T) {
	t0 := time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC)
	traces := []Trace{
		{Timestamp: t0.Add(time.Minute), VehicleID: "b"},
		{Timestamp: t0, VehicleID: "z"},
		{Timestamp: t0, VehicleID: "a"},
	}
	SortTraces(traces)
	if traces[0].VehicleID != "a" || traces[1].VehicleID != "z" || traces[2].VehicleID != "b" {
		t.Fatalf("bad order: %v %v %v", traces[0].VehicleID, traces[1].VehicleID, traces[2].VehicleID)
	}
}

func TestPropertiesEmpty(t *testing.T) {
	p := Properties(nil)
	if p.Traces != 0 || p.Buses != 0 {
		t.Fatal("empty properties should be zero")
	}
}

func TestRushHourFactorShape(t *testing.T) {
	mon := time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)
	rush := rushHourFactor(mon.Add(8*time.Hour + 30*time.Minute))
	midday := rushHourFactor(mon.Add(13 * time.Hour))
	night := rushHourFactor(mon.Add(23 * time.Hour))
	if !(rush > midday && midday >= night) {
		t.Fatalf("rush=%v midday=%v night=%v: want rush > midday >= night", rush, midday, night)
	}
	sat := time.Date(2013, 1, 5, 8, 30, 0, 0, time.UTC)
	if rushHourFactor(sat) >= rush {
		t.Fatal("weekend rush must be below weekday rush")
	}
}
