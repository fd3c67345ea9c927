package busdata

// rowFields sizes a trace's payload map for the row the Figure 8 pipeline
// grows it into, so that enriching it in place never rehashes: the 11
// fields FillValues writes, speed/actualDelay/heading from PreProcess, one
// layer<i>Area per quadtree layer plus leafArea and areaPath from the
// AreaTracker (a depth-8 tree has nine layers; two to spare), and stopId
// from the BusStopsTracker. 28 is also the most a Go map holds in 32 slots.
const rowFields = 11 + 3 + 11 + 2 + 1

// GetValues returns an empty payload map with room for the fully enriched
// row. The map belongs to whoever it is handed to next: see DESIGN.md,
// "Payload ownership".
func GetValues() map[string]any {
	return make(map[string]any, rowFields)
}

// PutValues does nothing: a payload map travels from the spout to the
// engines' windows and is reclaimed by the garbage collector when the last
// window drops it, so there is nothing to give back. It exists because the
// benchmark pairs it with GetValues.
func PutValues(map[string]any) {}

// FillValues writes the trace's tuple payload — the exact 11-field schema
// the BusReader spout emits — into m and returns it. Callers pass a
// GetValues map on the hot path; any map works.
func (tr *Trace) FillValues(m map[string]any) map[string]any {
	m["ts"] = float64(tr.Timestamp.Unix())
	m["hour"] = float64(tr.Hour())
	m["day"] = DayTypeOf(tr.Timestamp).String()
	m["lineId"] = tr.LineID
	m["direction"] = tr.Direction
	m["lat"] = tr.Pos.Lat
	m["lon"] = tr.Pos.Lon
	m["delay"] = tr.Delay
	m["congestion"] = boolToFloat(tr.Congestion)
	m["busStop"] = tr.BusStop
	m["vehicleId"] = tr.VehicleID
	return m
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
