package storm

import (
	"encoding/xml"
	"fmt"
	"strings"
)

// The paper's framework extends Storm with XML topology definitions so that
// users avoid writing Java wiring code (§3.2): the XML file names the
// spouts, bolts, their parallelism, their groupings, and the Esper rules to
// run. This file implements that loader; component type names are resolved
// through a Registry that the application populates with its spout/bolt
// constructors.

// XMLTopology is the on-disk topology description.
type XMLTopology struct {
	XMLName xml.Name       `xml:"topology"`
	Name    string         `xml:"name,attr"`
	Spouts  []XMLComponent `xml:"spout"`
	Bolts   []XMLComponent `xml:"bolt"`
	Rules   []XMLRule      `xml:"rules>rule"`
}

// XMLComponent describes one spout or bolt.
type XMLComponent struct {
	ID        string        `xml:"id,attr"`
	Type      string        `xml:"type,attr"`
	Executors int           `xml:"executors,attr"`
	Tasks     int           `xml:"tasks,attr"`
	Params    []XMLParam    `xml:"param"`
	Groupings []XMLGrouping `xml:"grouping"`
}

// XMLParam is one constructor parameter.
type XMLParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// XMLGrouping is one input subscription of a bolt.
type XMLGrouping struct {
	Type   string `xml:"type,attr"`   // shuffle|fields|all|global|direct
	Source string `xml:"source,attr"` // upstream component id
	Stream string `xml:"stream,attr"` // optional named stream
	Fields string `xml:"fields,attr"` // comma-separated, for fields grouping
}

// XMLRule is one user-submitted rule: an instance of the application's
// generic rule template (§3.3) given by the attribute, location, window and
// s attributes. EPL holds the element's body text, which only serves to
// reject a rule that carries one.
type XMLRule struct {
	Name        string  `xml:"name,attr"`
	Attribute   string  `xml:"attribute,attr"`
	Location    string  `xml:"location,attr"` // stops | leaves | layerN
	Window      int     `xml:"window,attr"`
	Sensitivity float64 `xml:"s,attr"`
	EPL         string  `xml:",chardata"`
}

// RuleDef is a parsed rule declaration from the XML file: the parameters
// of one rule template instance.
type RuleDef struct {
	Name        string
	Attribute   string
	Location    string
	Window      int
	Sensitivity float64
}

// SpoutConstructor builds a spout factory from XML parameters.
type SpoutConstructor func(params map[string]string) (SpoutFactory, error)

// BoltConstructor builds a bolt factory from XML parameters.
type BoltConstructor func(params map[string]string) (BoltFactory, error)

// Registry maps XML component type names to constructors.
type Registry struct {
	spouts map[string]SpoutConstructor
	bolts  map[string]BoltConstructor
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		spouts: make(map[string]SpoutConstructor),
		bolts:  make(map[string]BoltConstructor),
	}
}

// RegisterSpout binds an XML type name to a spout constructor.
func (r *Registry) RegisterSpout(typeName string, c SpoutConstructor) {
	r.spouts[typeName] = c
}

// RegisterBolt binds an XML type name to a bolt constructor.
func (r *Registry) RegisterBolt(typeName string, c BoltConstructor) {
	r.bolts[typeName] = c
}

// ParseXML decodes an XML topology description without resolving types.
func ParseXML(data []byte) (*XMLTopology, error) {
	var xt XMLTopology
	if err := xml.Unmarshal(data, &xt); err != nil {
		return nil, fmt.Errorf("storm: parsing topology XML: %w", err)
	}
	if xt.Name == "" {
		return nil, fmt.Errorf("storm: topology XML has no name attribute")
	}
	return &xt, nil
}

// LoadXML parses an XML topology description and builds the topology through
// the registry. It returns the topology plus the rule declarations (rules
// are consumed by the application's start-up optimization, not by Storm
// itself).
func LoadXML(data []byte, reg *Registry) (*Topology, []RuleDef, error) {
	xt, err := ParseXML(data)
	if err != nil {
		return nil, nil, err
	}
	topo, err := xt.Build(reg)
	if err != nil {
		return nil, nil, err
	}
	rules, err := xt.RuleDefs()
	if err != nil {
		return nil, nil, err
	}
	return topo, rules, nil
}

// Build resolves the description's component types through the registry and
// builds the topology. A caller that needs something from the description
// first (the engine parallelism, the rules) parses once with ParseXML, and
// may adjust executors and tasks on the parsed value before building.
func (xt *XMLTopology) Build(reg *Registry) (*Topology, error) {
	b := NewTopologyBuilder(xt.Name)
	for _, s := range xt.Spouts {
		ctor, ok := reg.spouts[s.Type]
		if !ok {
			return nil, fmt.Errorf("storm: unknown spout type %q", s.Type)
		}
		factory, err := ctor(paramsMap(s.Params))
		if err != nil {
			return nil, fmt.Errorf("storm: constructing spout %q: %w", s.ID, err)
		}
		b.SetSpout(s.ID, factory, s.Executors, s.Tasks)
		if len(s.Groupings) > 0 {
			return nil, fmt.Errorf("storm: spout %q must not declare groupings", s.ID)
		}
	}
	for _, bolt := range xt.Bolts {
		ctor, ok := reg.bolts[bolt.Type]
		if !ok {
			return nil, fmt.Errorf("storm: unknown bolt type %q", bolt.Type)
		}
		factory, err := ctor(paramsMap(bolt.Params))
		if err != nil {
			return nil, fmt.Errorf("storm: constructing bolt %q: %w", bolt.ID, err)
		}
		d := b.SetBolt(bolt.ID, factory, bolt.Executors, bolt.Tasks)
		for _, g := range bolt.Groupings {
			typ, err := groupingTypeOf(g.Type)
			if err != nil {
				return nil, fmt.Errorf("storm: bolt %q: %w", bolt.ID, err)
			}
			var fields []string
			if g.Fields != "" {
				for _, f := range strings.Split(g.Fields, ",") {
					fields = append(fields, strings.TrimSpace(f))
				}
			}
			d.StreamGrouping(g.Source, g.Stream, typ, fields...)
		}
	}
	return b.Build()
}

// RuleDefs returns the description's rule declarations, unnamed ones named
// by their position. A rule with body text or without an attribute is an
// error: every rule is a template instance.
func (xt *XMLTopology) RuleDefs() ([]RuleDef, error) {
	const template = "a rule is a template instance, given by the attribute, location, window and s attributes"
	var rules []RuleDef
	for i, r := range xt.Rules {
		if strings.TrimSpace(r.EPL) != "" {
			return nil, fmt.Errorf("storm: rule %d (%q) has body text; %s", i, r.Name, template)
		}
		if r.Attribute == "" {
			return nil, fmt.Errorf("storm: rule %d (%q) has no attribute; %s", i, r.Name, template)
		}
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("rule-%d", i+1)
		}
		rules = append(rules, RuleDef{
			Name:        name,
			Attribute:   r.Attribute,
			Location:    r.Location,
			Window:      r.Window,
			Sensitivity: r.Sensitivity,
		})
	}
	return rules, nil
}

func paramsMap(ps []XMLParam) map[string]string {
	m := make(map[string]string, len(ps))
	for _, p := range ps {
		m[p.Name] = p.Value
	}
	return m
}

func groupingTypeOf(s string) (GroupingType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "shuffle":
		return ShuffleGrouping, nil
	case "fields":
		return FieldsGrouping, nil
	case "all":
		return AllGrouping, nil
	case "global":
		return GlobalGrouping, nil
	case "direct":
		return DirectGrouping, nil
	}
	return 0, fmt.Errorf("unknown grouping type %q", s)
}
