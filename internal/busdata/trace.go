// Package busdata defines the bus-trace data model of Table 1 of the paper,
// a CSV codec compatible with the Dublin SIRI dump layout, a calibrated
// synthetic trace generator (the proprietary dublinked.com dataset is not
// available, see DESIGN.md), and the pre-processing step of §3.1 that
// enriches raw traces with speed and "actual delay".
package busdata

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"trafficcep/internal/geo"
)

// Trace is one raw record transmitted by a bus (Table 1).
type Trace struct {
	Timestamp  time.Time // time of the measurement
	LineID     string    // the line of the bus
	Direction  bool      // travel direction flag
	Pos        geo.Point // GPS position
	Delay      float64   // seconds the bus is behind (+) / ahead (-) of schedule
	Congestion bool      // congestion flag from the SIRI feed
	BusStop    string    // id of the closest bus stop as reported by the bus
	VehicleID  string    // distinguishes different buses
}

// Enriched is a trace extended by the PreProcess bolt (§3.1, §4.3.2): speed
// from the previous position and the change in delay ("actual delay"), and
// later by the AreaTracker / BusStopsTracker bolts with the quadtree areas
// and the de-noised stop id.
type Enriched struct {
	Trace
	SpeedKmh    float64  // speed computed from the previous measurement
	ActualDelay float64  // delta of Delay since the previous measurement
	Heading     float64  // bearing from previous position, degrees
	Areas       []string // quadtree area IDs, root layer first
	StopID      string   // de-noised bus stop id (BusStopsTracker)
}

// Attribute names used throughout rules, thresholds, and statistics. These
// are exactly the monitorable attributes of Table 6.
const (
	AttrDelay       = "delay"
	AttrActualDelay = "actualDelay"
	AttrSpeed       = "speed"
	AttrCongestion  = "congestion"
)

// Attributes lists all monitorable attributes in Table 6 order.
var Attributes = []string{AttrDelay, AttrActualDelay, AttrSpeed, AttrCongestion}

// AttributeValue extracts a named attribute from an enriched trace. The
// congestion flag is mapped to {0,1} so it can be averaged in windows.
func (e *Enriched) AttributeValue(name string) (float64, error) {
	switch name {
	case AttrDelay:
		return e.Delay, nil
	case AttrActualDelay:
		return e.ActualDelay, nil
	case AttrSpeed:
		return e.SpeedKmh, nil
	case AttrCongestion:
		if e.Congestion {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("busdata: unknown attribute %q", name)
	}
}

// DayType distinguishes weekday from weekend statistics, as the thresholds
// table keys on "different hours of day and ... weekdays and weekends" (§3.1).
type DayType int

const (
	Weekday DayType = iota
	Weekend
)

// String implements fmt.Stringer.
func (d DayType) String() string {
	if d == Weekend {
		return "weekend"
	}
	return "weekday"
}

// DayTypeOf classifies a timestamp.
func DayTypeOf(t time.Time) DayType {
	switch t.Weekday() {
	case time.Saturday, time.Sunday:
		return Weekend
	default:
		return Weekday
	}
}

// Hour returns the hour-of-day bucket of a trace used for threshold lookup.
func (tr *Trace) Hour() int { return tr.Timestamp.Hour() }

// MarshalCSV renders the trace as a CSV record in the canonical column order:
// timestamp(unix),line,direction,lat,lon,delay,congestion,stop,vehicle.
func (tr *Trace) MarshalCSV() []string {
	return []string{
		strconv.FormatInt(tr.Timestamp.Unix(), 10),
		tr.LineID,
		boolStr(tr.Direction),
		strconv.FormatFloat(tr.Pos.Lat, 'f', 6, 64),
		strconv.FormatFloat(tr.Pos.Lon, 'f', 6, 64),
		strconv.FormatFloat(tr.Delay, 'f', 1, 64),
		boolStr(tr.Congestion),
		tr.BusStop,
		tr.VehicleID,
	}
}

// UnmarshalCSV parses a CSV record in the canonical column order.
func (tr *Trace) UnmarshalCSV(rec []string) error {
	if len(rec) != 9 {
		return fmt.Errorf("busdata: record has %d fields, want 9", len(rec))
	}
	unix, err := strconv.ParseInt(rec[0], 10, 64)
	if err != nil {
		return fmt.Errorf("busdata: bad timestamp %q: %w", rec[0], err)
	}
	lat, err := parseFinite(rec[3])
	if err != nil {
		return fmt.Errorf("busdata: bad latitude %q: %w", rec[3], err)
	}
	lon, err := parseFinite(rec[4])
	if err != nil {
		return fmt.Errorf("busdata: bad longitude %q: %w", rec[4], err)
	}
	delay, err := parseFinite(rec[5])
	if err != nil {
		return fmt.Errorf("busdata: bad delay %q: %w", rec[5], err)
	}
	dir, err := parseBool(rec[2])
	if err != nil {
		return fmt.Errorf("busdata: bad direction %q: %w", rec[2], err)
	}
	cong, err := parseBool(rec[6])
	if err != nil {
		return fmt.Errorf("busdata: bad congestion %q: %w", rec[6], err)
	}
	tr.Timestamp = time.Unix(unix, 0).UTC()
	tr.LineID = rec[1]
	tr.Direction = dir
	tr.Pos = geo.Point{Lat: lat, Lon: lon}
	tr.Delay = delay
	tr.Congestion = cong
	tr.BusStop = rec[7]
	tr.VehicleID = rec[8]
	return nil
}

// parseFinite parses a float and rejects NaN and ±Inf, which
// strconv.ParseFloat accepts: one NaN delay would make its location's
// mean and deviation NaN, and its threshold never fire again.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = errors.New("not a finite number")
	}
	return v, err
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func parseBool(s string) (bool, error) {
	switch s {
	case "1", "true", "TRUE", "True":
		return true, nil
	case "0", "false", "FALSE", "False":
		return false, nil
	}
	return false, fmt.Errorf("not a boolean: %q", s)
}
