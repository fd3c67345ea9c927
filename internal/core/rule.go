// Package core implements the paper's contributions on top of the
// substrates: the generic rule template of §3.3 compiled to EPL, the latency
// estimation model of §4.1.4 (regression Functions 1–3), the rule
// partitioning algorithm of §4.2.1 (Algorithm 1), the rules allocation
// algorithm of §4.2.2 (Algorithm 2), the threshold retrieval the paper
// adopts in §4.3.1 (Listing 1 over a shared thresholds table; Figure 10's
// three baselines are internal/experiments'), the dynamic-thresholds batch
// loop of §4.1.3, and the Figure 8 traffic-monitoring topology.
package core

import (
	"fmt"
	"math"
	"strings"

	"trafficcep/internal/busdata"
)

// LocationKind selects the spatial granularity a rule monitors (§4.1.1: the
// user picks either a quadtree layer or the derived bus stops).
type LocationKind int

// Location kinds.
const (
	// BusStops monitors the DENCLUE-derived bus stops.
	BusStops LocationKind = iota
	// QuadtreeLayer monitors the areas of one quadtree layer (Rule.Layer).
	QuadtreeLayer
	// QuadtreeLeaves monitors the finest quadtree areas.
	QuadtreeLeaves
)

func (k LocationKind) String() string {
	switch k {
	case BusStops:
		return "busstops"
	case QuadtreeLayer:
		return "layer"
	case QuadtreeLeaves:
		return "leaves"
	}
	return fmt.Sprintf("LocationKind(%d)", int(k))
}

// Rule is one instance of the generic rule template (§3.3): fire when the
// windowed average of Attribute over a spatial location exceeds that
// location's dynamic threshold. Its parameters are exactly the ones Table 6
// sweeps: attribute, location, window length.
type Rule struct {
	Name      string
	Attribute string // busdata attribute (Table 6)
	Kind      LocationKind
	Layer     int     // quadtree layer for Kind == QuadtreeLayer
	Window    int     // window length l (Table 6: 1, 10, 100, 1000)
	Weight    float64 // w_i of Equation 2; defaults to 1
	// Sensitivity is the s of Listing 2 (threshold = mean + s·stdv).
	Sensitivity float64
}

// Validate checks the rule's parameters.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("core: rule has no name")
	}
	ok := false
	for _, a := range busdata.Attributes {
		if a == r.Attribute {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("core: rule %q monitors unknown attribute %q", r.Name, r.Attribute)
	}
	if r.Window <= 0 {
		return fmt.Errorf("core: rule %q has non-positive window %d", r.Name, r.Window)
	}
	if r.Kind == QuadtreeLayer && r.Layer < 0 {
		return fmt.Errorf("core: rule %q has negative layer", r.Name)
	}
	if math.IsNaN(r.Sensitivity) || math.IsInf(r.Sensitivity, 0) {
		return fmt.Errorf("core: rule %q has non-finite sensitivity %v", r.Name, r.Sensitivity)
	}
	return nil
}

// weight returns w_i, defaulting to 1.
func (r Rule) weight() float64 {
	if r.Weight <= 0 {
		return 1
	}
	return r.Weight
}

// LocationField is the event field carrying the rule's location. The
// EsperBolt attaches one field per granularity to every tuple, so a rule
// only has to name the right one.
func (r Rule) LocationField() string {
	switch r.Kind {
	case BusStops:
		return "stopId"
	case QuadtreeLeaves:
		return "leafArea"
	default:
		return fmt.Sprintf("layer%dArea", r.Layer)
	}
}

// ThresholdStream is the name Listing 1 reads this rule's thresholds under
// as a stream: the name its thresholds table is registered under
// (cep.Engine.RegisterTable). The engine refuses the name as a stream.
func (r Rule) ThresholdStream() string {
	return "thresholds_" + sanitize(r.Name)
}

func sanitize(s string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			return c
		default:
			return '_'
		}
	}, s)
}

// BusStream is the stream name the EsperBolt publishes enriched traces on.
const BusStream = "bus"

// StreamEPL renders the rule as the Listing 1 EPL statement of the "Add the
// Thresholds in an Esper stream" strategy (§4.3.1), as the paper prints it:
// its thresholds item reads the rule's thresholds table, registered under
// ThresholdStream, and only bus events fire the rule.
func (r Rule) StreamEPL() string {
	loc := r.LocationField()
	return fmt.Sprintf(`SELECT bd2.%[1]s AS location, avg(bd2.%[2]s) AS observed, avg(thresholds.value) AS threshold
FROM %[3]s.std:lastevent() AS bd UNIDIRECTIONAL,
     %[3]s.std:groupwin(%[1]s).win:length(%[4]d) AS bd2,
     %[5]s.win:keepall() AS thresholds
WHERE bd.hour = thresholds.hour AND bd.day = thresholds.day
  AND bd.%[1]s = thresholds.location AND bd.%[1]s = bd2.%[1]s
GROUP BY bd2.%[1]s
HAVING avg(bd2.%[2]s) > avg(thresholds.value)`,
		loc, r.Attribute, BusStream, r.Window, r.ThresholdStream())
}
