package busdata

import (
	"sync"
	"sync/atomic"
	"time"
)

// Preprocessor implements the enrichment of §3.1: "For each tuple that the
// buses transmit, we compute the speed of the bus movement and the change in
// the delay value from its previously received measurement, labelled as
// actual delay." It keeps per-vehicle state and is safe for concurrent use
// (the PreProcess bolt may run with several tasks).
type Preprocessor struct {
	mu   sync.Mutex
	prev map[string]Trace
	// MaxGap is the maximum time between measurements for speed to be
	// computed; after a longer silence the vehicle is treated as fresh.
	MaxGap time.Duration
	// MaxSpeedKmh caps reported speed; GPS jumps beyond this are treated
	// as noise and produce speed 0 (the feed is "very noisy", §3.3).
	MaxSpeedKmh float64

	outOfOrder atomic.Uint64
}

// NewPreprocessor returns a preprocessor with the defaults used by the
// topology: 5 minute staleness gap, 120 km/h plausibility cap.
func NewPreprocessor() *Preprocessor {
	return &Preprocessor{
		prev:        make(map[string]Trace),
		MaxGap:      5 * time.Minute,
		MaxSpeedKmh: 120,
	}
}

// Process enriches one trace. The first trace of a vehicle (or the first
// after a long gap) gets speed 0 and actual delay 0, and so does a trace
// whose timestamp is not after the vehicle's previous one: that trace does
// not replace the previous one, so the next in-order trace is still
// derived against the last in-order trace. OutOfOrder counts those.
func (p *Preprocessor) Process(tr Trace) Enriched {
	p.mu.Lock()
	prev, seen := p.prev[tr.VehicleID]
	if !seen || tr.Timestamp.After(prev.Timestamp) {
		p.prev[tr.VehicleID] = tr
	} else {
		p.outOfOrder.Add(1)
	}
	p.mu.Unlock()

	e := Enriched{Trace: tr}
	if !seen {
		return e
	}
	dt := tr.Timestamp.Sub(prev.Timestamp)
	if dt <= 0 || dt > p.MaxGap {
		return e
	}
	meters := prev.Pos.DistanceMeters(tr.Pos)
	speed := meters / dt.Seconds() * 3.6
	if speed <= p.MaxSpeedKmh {
		e.SpeedKmh = speed
		e.Heading = prev.Pos.BearingDegrees(tr.Pos)
	}
	e.ActualDelay = tr.Delay - prev.Delay
	return e
}

// OutOfOrder returns how many traces had a timestamp not after their
// vehicle's previous one.
func (p *Preprocessor) OutOfOrder() uint64 { return p.outOfOrder.Load() }

// Reset clears all per-vehicle state.
func (p *Preprocessor) Reset() {
	p.mu.Lock()
	p.prev = make(map[string]Trace)
	p.mu.Unlock()
}

// TrackedVehicles returns the number of vehicles with state.
func (p *Preprocessor) TrackedVehicles() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.prev)
}
