package busdata

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"trafficcep/internal/geo"
)

// GeneratorConfig calibrates the synthetic Dublin feed to the dataset
// properties of Table 2: 911 buses, 67 lines, 3 tuples per minute per bus
// (one every 20 s), service from 06:00 until 03:00 the next day.
type GeneratorConfig struct {
	Buses          int           // number of vehicles; Table 2: 911
	Lines          int           // number of bus lines; Table 2: 67
	ReportPeriod   time.Duration // per-bus reporting period; Table 2: 20 s
	ServiceStart   int           // first service hour of day; Table 2: 6
	ServiceEnd     int           // last service hour (next day, exclusive); Table 2: 3
	StopsPerLine   int           // bus stops along each line route
	Seed           int64         // RNG seed; generation is fully deterministic
	StartDay       time.Time     // first day of the generated period
	GPSNoiseMeters float64       // per-report GPS jitter (the "noisy data" of §4.1.2)
}

// DefaultConfig returns the Table 2 calibration.
func DefaultConfig() GeneratorConfig {
	return GeneratorConfig{
		Buses:          911,
		Lines:          67,
		ReportPeriod:   20 * time.Second,
		ServiceStart:   6,
		ServiceEnd:     3,
		StopsPerLine:   24,
		Seed:           1,
		StartDay:       time.Date(2013, time.January, 1, 0, 0, 0, 0, time.UTC),
		GPSNoiseMeters: 12,
	}
}

// Line is a synthetic bus route: a polyline of stops radiating through the
// city centre, which reproduces the centre-heavy spatial skew the paper
// relies on ("greater delays and lower speed in the city centre than the
// suburbs", §3.1).
type Line struct {
	ID    string
	Stops []geo.Point // route waypoints, terminus to terminus
}

// Generator produces a deterministic synthetic trace stream.
type Generator struct {
	cfg   GeneratorConfig
	lines []Line
	// stopIDs[l][i] is the id of stop i of line l, the BusStop of a trace
	// reported nearest to it.
	stopIDs [][]string
	rng     *rand.Rand

	// per-vehicle state
	vehicles []vehicleState
}

type vehicleState struct {
	id        string
	line      int
	direction bool
	// progress along the route in [0, len(stops)-1) as a float index
	progress float64
	delay    float64
	lastPos  geo.Point
}

// NewGenerator builds a generator with synthetic line geometry.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if cfg.Buses <= 0 || cfg.Lines <= 0 {
		return nil, fmt.Errorf("busdata: buses and lines must be positive, got %d/%d", cfg.Buses, cfg.Lines)
	}
	if cfg.ReportPeriod <= 0 {
		return nil, fmt.Errorf("busdata: report period must be positive")
	}
	if cfg.StopsPerLine < 2 {
		return nil, fmt.Errorf("busdata: need at least 2 stops per line")
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.buildLines()
	g.buildVehicles()
	return g, nil
}

// buildLines synthesizes radial routes: each line starts at a suburb point on
// the bounding-box rim, passes near the city centre, and ends at the opposite
// rim, with slight per-line curvature.
func (g *Generator) buildLines() {
	b := geo.Dublin
	for i := 0; i < g.cfg.Lines; i++ {
		angle := 2 * math.Pi * float64(i) / float64(g.cfg.Lines)
		// Entry and exit points on an ellipse inscribed in the bounds.
		cLat, cLon := geo.DublinCenter.Lat, geo.DublinCenter.Lon
		rLat := (b.MaxLat - b.MinLat) / 2 * 0.9
		rLon := (b.MaxLon - b.MinLon) / 2 * 0.9
		start := geo.Point{Lat: cLat + rLat*math.Sin(angle), Lon: cLon + rLon*math.Cos(angle)}
		end := geo.Point{Lat: cLat - rLat*math.Sin(angle), Lon: cLon - rLon*math.Cos(angle)}
		// A perpendicular bow so different lines do not overlap exactly.
		bow := 0.15 * (g.rng.Float64() - 0.5)
		line := Line{ID: lineID(i)}
		n := g.cfg.StopsPerLine
		for s := 0; s < n; s++ {
			t := float64(s) / float64(n-1)
			lat := start.Lat + (end.Lat-start.Lat)*t
			lon := start.Lon + (end.Lon-start.Lon)*t
			// Pull the midsection towards the centre (radial routes all
			// pass near the centre) and add the bow.
			pull := math.Sin(t * math.Pi)
			lat += (cLat - lat) * 0.5 * pull
			lon += (cLon - lon) * 0.5 * pull
			lat += bow * pull * (end.Lon - start.Lon) * 0.2
			lon -= bow * pull * (end.Lat - start.Lat) * 0.2
			line.Stops = append(line.Stops, clampToRect(geo.Point{Lat: lat, Lon: lon}, b))
		}
		g.lines = append(g.lines, line)
		ids := make([]string, n)
		for s := range ids {
			ids[s] = fmt.Sprintf("%s-S%02d", line.ID, s)
		}
		g.stopIDs = append(g.stopIDs, ids)
	}
}

func clampToRect(p geo.Point, r geo.Rect) geo.Point {
	eps := 1e-9
	if p.Lat < r.MinLat {
		p.Lat = r.MinLat
	}
	if p.Lat >= r.MaxLat {
		p.Lat = r.MaxLat - eps
	}
	if p.Lon < r.MinLon {
		p.Lon = r.MinLon
	}
	if p.Lon >= r.MaxLon {
		p.Lon = r.MaxLon - eps
	}
	return p
}

func lineID(i int) string { return fmt.Sprintf("L%02d", i+1) }

func (g *Generator) buildVehicles() {
	for v := 0; v < g.cfg.Buses; v++ {
		line := v % g.cfg.Lines
		nStops := len(g.lines[line].Stops)
		g.vehicles = append(g.vehicles, vehicleState{
			id:        fmt.Sprintf("V%04d", v+1),
			line:      line,
			direction: v%2 == 0,
			progress:  g.rng.Float64() * float64(nStops-1),
			delay:     g.rng.NormFloat64() * 30,
		})
	}
}

// Lines returns the synthetic route geometry (useful for seeding the
// quadtree with "important coordinates", §4.1.1).
func (g *Generator) Lines() []Line { return g.lines }

// StopObservation is one synthetic "bus reports it is at a stop" record,
// the input the DENCLUE stop-derivation consumes (§4.1.2).
type StopObservation struct {
	Pos       geo.Point
	Line      string
	Direction bool
	Heading   float64
}

// StopObservations synthesizes DENCLUE input: noisy reports of buses at the
// stops of every line, n reports per stop/direction.
func (g *Generator) StopObservations(nPerStop int) []StopObservation {
	var out []StopObservation
	for _, ln := range g.lines {
		for si, stop := range ln.Stops {
			var heading float64
			if si+1 < len(ln.Stops) {
				heading = stop.BearingDegrees(ln.Stops[si+1])
			} else {
				heading = ln.Stops[si-1].BearingDegrees(stop)
			}
			for _, dir := range []bool{true, false} {
				h := heading
				if !dir {
					h = math.Mod(heading+180, 360)
				}
				for k := 0; k < nPerStop; k++ {
					out = append(out, StopObservation{
						Pos:       g.jitter(stop),
						Line:      ln.ID,
						Direction: dir,
						Heading:   h + g.rng.NormFloat64()*4,
					})
				}
			}
		}
	}
	return out
}

// centreDistanceFactor is 1 at the city centre and decays towards the rim;
// it scales delays up and speeds down in the centre.
func centreDistanceFactor(p geo.Point) float64 {
	d := p.DistanceMeters(geo.DublinCenter)
	return math.Exp(-d / 5000)
}

// rushHourFactor models the diurnal congestion pattern: peaks at 08:30 and
// 17:30 on weekdays, flat low traffic on weekends.
func rushHourFactor(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60
	base := 0.2
	if DayTypeOf(t) == Weekend {
		return base + 0.1
	}
	morning := math.Exp(-((h - 8.5) * (h - 8.5)) / 2)
	evening := math.Exp(-((h - 17.5) * (h - 17.5)) / 2.88)
	return base + 0.8*math.Max(morning, evening)
}

// InService reports whether the given wall-clock time is inside the service
// window (ServiceStart .. 24 .. ServiceEnd next day).
func (g *Generator) InService(t time.Time) bool {
	h := t.Hour()
	if g.cfg.ServiceStart <= g.cfg.ServiceEnd {
		return h >= g.cfg.ServiceStart && h < g.cfg.ServiceEnd
	}
	return h >= g.cfg.ServiceStart || h < g.cfg.ServiceEnd
}

// jitter adds GPS noise to a point.
func (g *Generator) jitter(p geo.Point) geo.Point {
	if g.cfg.GPSNoiseMeters <= 0 {
		return p
	}
	const mPerLat = 111194.9
	mPerLon := mPerLat * math.Cos(p.Lat*math.Pi/180)
	return clampToRect(geo.Point{
		Lat: p.Lat + g.rng.NormFloat64()*g.cfg.GPSNoiseMeters/mPerLat,
		Lon: p.Lon + g.rng.NormFloat64()*g.cfg.GPSNoiseMeters/mPerLon,
	}, geo.Dublin)
}

// Tick generates the reports of all in-service vehicles at time t and
// advances the vehicle simulation by the report period. Traces are returned
// ordered by vehicle id.
func (g *Generator) Tick(t time.Time) []Trace {
	if !g.InService(t) {
		return nil
	}
	return g.tick(t, make([]Trace, 0, len(g.vehicles)))
}

// tick appends the reports of every vehicle at in-service time t to traces
// and advances the simulation, as Tick does.
func (g *Generator) tick(t time.Time, traces []Trace) []Trace {
	dt := g.cfg.ReportPeriod.Seconds()
	rush := rushHourFactor(t)
	for i := range g.vehicles {
		v := &g.vehicles[i]
		ln := g.lines[v.line]
		pos := positionAt(ln, v.progress)
		central := centreDistanceFactor(pos)
		congestionLevel := rush * central

		// Nominal speed 32 km/h, reduced by congestion down to ~7 km/h.
		speed := 32 * (1 - 0.78*congestionLevel) * (0.85 + 0.3*g.rng.Float64())
		// Advance along the route; stop spacing approximated from geometry.
		segMeters := segmentMeters(ln, v.progress)
		if segMeters > 0 {
			v.progress += speed / 3.6 * dt / segMeters
		}
		nStops := float64(len(ln.Stops) - 1)
		for v.progress >= nStops {
			v.progress -= nStops
			v.direction = !v.direction
			// Terminus dwell resets most of the accumulated delay.
			v.delay *= 0.3
		}

		// Delay random walk with congestion drift: congested areas add
		// delay, free-flowing segments recover slowly.
		v.delay += congestionLevel*8*dt/20 - 2*dt/20 + g.rng.NormFloat64()*3
		if v.delay < -240 {
			v.delay = -240
		}

		congested := congestionLevel > 0.45 && g.rng.Float64() < congestionLevel

		stopIdx := int(v.progress + 0.5)
		if stopIdx >= len(ln.Stops) {
			stopIdx = len(ln.Stops) - 1
		}
		reportPos := g.jitter(pos)
		traces = append(traces, Trace{
			Timestamp:  t,
			LineID:     ln.ID,
			Direction:  v.direction,
			Pos:        reportPos,
			Delay:      v.delay,
			Congestion: congested,
			BusStop:    g.stopIDs[v.line][stopIdx],
			VehicleID:  v.id,
		})
		v.lastPos = pos
	}
	return traces
}

// positionAt interpolates along the line's stop polyline.
func positionAt(ln Line, progress float64) geo.Point {
	if progress <= 0 {
		return ln.Stops[0]
	}
	last := float64(len(ln.Stops) - 1)
	if progress >= last {
		return ln.Stops[len(ln.Stops)-1]
	}
	i := int(progress)
	t := progress - float64(i)
	a, b := ln.Stops[i], ln.Stops[i+1]
	return geo.Point{Lat: a.Lat + (b.Lat-a.Lat)*t, Lon: a.Lon + (b.Lon-a.Lon)*t}
}

// segmentMeters returns the length of the route segment progress falls in.
func segmentMeters(ln Line, progress float64) float64 {
	i := int(progress)
	if i >= len(ln.Stops)-1 {
		i = len(ln.Stops) - 2
	}
	if i < 0 {
		i = 0
	}
	return ln.Stops[i].DistanceMeters(ln.Stops[i+1])
}

// Generate produces all traces for the given duration starting at the
// service start of cfg.StartDay, in timestamp order.
func (g *Generator) Generate(duration time.Duration) []Trace {
	start := time.Date(
		g.cfg.StartDay.Year(), g.cfg.StartDay.Month(), g.cfg.StartDay.Day(),
		g.cfg.ServiceStart, 0, 0, 0, time.UTC)
	end := start.Add(duration)
	ticks := 0
	for ts := start; ts.Before(end); ts = ts.Add(g.cfg.ReportPeriod) {
		if g.InService(ts) {
			ticks++
		}
	}
	if ticks == 0 {
		return nil
	}
	out := make([]Trace, 0, ticks*len(g.vehicles))
	for ts := start; ts.Before(end); ts = ts.Add(g.cfg.ReportPeriod) {
		if g.InService(ts) {
			out = g.tick(ts, out)
		}
	}
	return out
}

// DatasetProperties summarizes a trace set the way Table 2 does, for the
// dataset experiment of cmd/experiments.
type DatasetProperties struct {
	Buses        int
	Lines        int
	Traces       int
	TuplesPerMin float64 // per bus
	FirstTS      time.Time
	LastTS       time.Time
	ApproxSizeMB float64 // at the CSV encoding's average record size
}

// Properties computes dataset statistics over a trace slice.
func Properties(traces []Trace) DatasetProperties {
	if len(traces) == 0 {
		return DatasetProperties{}
	}
	buses := make(map[string]bool)
	lines := make(map[string]bool)
	var bytes int
	first, last := traces[0].Timestamp, traces[0].Timestamp
	for i := range traces {
		tr := &traces[i]
		buses[tr.VehicleID] = true
		lines[tr.LineID] = true
		for _, f := range tr.MarshalCSV() {
			bytes += len(f) + 1
		}
		if tr.Timestamp.Before(first) {
			first = tr.Timestamp
		}
		if tr.Timestamp.After(last) {
			last = tr.Timestamp
		}
	}
	mins := last.Sub(first).Minutes()
	perMin := 0.0
	if mins > 0 && len(buses) > 0 {
		perMin = float64(len(traces)) / mins / float64(len(buses))
	}
	return DatasetProperties{
		Buses:        len(buses),
		Lines:        len(lines),
		Traces:       len(traces),
		TuplesPerMin: perMin,
		FirstTS:      first,
		LastTS:       last,
		ApproxSizeMB: float64(bytes) / (1 << 20),
	}
}

// SortTraces orders traces by (timestamp, vehicle) — the order a merged
// city-wide feed would deliver them in.
func SortTraces(traces []Trace) {
	sort.Slice(traces, func(i, j int) bool {
		if !traces[i].Timestamp.Equal(traces[j].Timestamp) {
			return traces[i].Timestamp.Before(traces[j].Timestamp)
		}
		return traces[i].VehicleID < traces[j].VehicleID
	})
}
