package storm

import (
	"fmt"
	"sort"
)

// componentSpec is the declaration of one spout or bolt.
type componentSpec struct {
	id        string
	isSpout   bool
	spout     SpoutFactory
	bolt      BoltFactory
	executors int
	tasks     int
	// groupings are this bolt's input subscriptions.
	groupings []Grouping
	// exclusiveInput is TaskContext.ExclusiveInput for this component's
	// tasks, set by Build.
	exclusiveInput bool
}

// Topology is a validated processing graph ready to run.
type Topology struct {
	Name  string
	specs []*componentSpec
	byID  map[string]*componentSpec
	// order is a topological order of component ids, spouts first.
	order []string
}

// TopologyBuilder assembles a topology, mirroring Storm's builder API.
type TopologyBuilder struct {
	name  string
	specs []*componentSpec
	byID  map[string]*componentSpec
	errs  []error
}

// NewTopologyBuilder starts a topology definition.
func NewTopologyBuilder(name string) *TopologyBuilder {
	return &TopologyBuilder{name: name, byID: make(map[string]*componentSpec)}
}

// BoltDeclarer adds input subscriptions to a bolt being declared.
type BoltDeclarer struct {
	b    *TopologyBuilder
	spec *componentSpec
}

// SetSpout declares a spout with the given executor and task parallelism.
// As in Storm, tasks >= executors; if tasks is 0 it defaults to executors.
func (b *TopologyBuilder) SetSpout(id string, factory SpoutFactory, executors, tasks int) *TopologyBuilder {
	b.addSpec(&componentSpec{id: id, isSpout: true, spout: factory, executors: executors, tasks: tasks})
	return b
}

// SetBolt declares a bolt; use the returned declarer to subscribe it to its
// inputs.
func (b *TopologyBuilder) SetBolt(id string, factory BoltFactory, executors, tasks int) *BoltDeclarer {
	spec := &componentSpec{id: id, bolt: factory, executors: executors, tasks: tasks}
	b.addSpec(spec)
	return &BoltDeclarer{b: b, spec: spec}
}

func (b *TopologyBuilder) addSpec(spec *componentSpec) {
	if spec.id == "" {
		b.errs = append(b.errs, fmt.Errorf("storm: component with empty id"))
		return
	}
	if _, dup := b.byID[spec.id]; dup {
		b.errs = append(b.errs, fmt.Errorf("storm: duplicate component id %q", spec.id))
		return
	}
	if spec.executors <= 0 {
		spec.executors = 1
	}
	if spec.tasks <= 0 {
		spec.tasks = spec.executors
	}
	if spec.tasks < spec.executors {
		// Storm caps executors at the task count.
		spec.executors = spec.tasks
	}
	if spec.isSpout && spec.spout == nil {
		b.errs = append(b.errs, fmt.Errorf("storm: spout %q has no factory", spec.id))
		return
	}
	if !spec.isSpout && spec.bolt == nil {
		b.errs = append(b.errs, fmt.Errorf("storm: bolt %q has no factory", spec.id))
		return
	}
	b.byID[spec.id] = spec
	b.specs = append(b.specs, spec)
}

func (d *BoltDeclarer) subscribe(g Grouping) *BoltDeclarer {
	if d.spec == nil {
		return d
	}
	if g.Stream == "" {
		g.Stream = DefaultStream
	}
	d.spec.groupings = append(d.spec.groupings, g)
	return d
}

// ShuffleGrouping subscribes round-robin to source's default stream.
func (d *BoltDeclarer) ShuffleGrouping(source string) *BoltDeclarer {
	return d.subscribe(Grouping{Source: source, Type: ShuffleGrouping})
}

// FieldsGrouping subscribes with key-hash routing on the given fields.
func (d *BoltDeclarer) FieldsGrouping(source string, fields ...string) *BoltDeclarer {
	return d.subscribe(Grouping{Source: source, Type: FieldsGrouping, Fields: fields})
}

// AllGrouping subscribes with replication to every task.
func (d *BoltDeclarer) AllGrouping(source string) *BoltDeclarer {
	return d.subscribe(Grouping{Source: source, Type: AllGrouping})
}

// GlobalGrouping subscribes with delivery to the first task only.
func (d *BoltDeclarer) GlobalGrouping(source string) *BoltDeclarer {
	return d.subscribe(Grouping{Source: source, Type: GlobalGrouping})
}

// DirectGrouping subscribes with explicit task targeting (EmitDirect).
func (d *BoltDeclarer) DirectGrouping(source string) *BoltDeclarer {
	return d.subscribe(Grouping{Source: source, Type: DirectGrouping})
}

// StreamGrouping subscribes to a named stream of the source with the given
// grouping type.
func (d *BoltDeclarer) StreamGrouping(source, stream string, typ GroupingType, fields ...string) *BoltDeclarer {
	return d.subscribe(Grouping{Source: source, Stream: stream, Type: typ, Fields: fields})
}

// Build validates the graph and returns an immutable topology.
func (b *TopologyBuilder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.specs) == 0 {
		return nil, fmt.Errorf("storm: empty topology")
	}
	hasSpout := false
	for _, s := range b.specs {
		if s.isSpout {
			hasSpout = true
			if len(s.groupings) > 0 {
				return nil, fmt.Errorf("storm: spout %q cannot subscribe to inputs", s.id)
			}
			continue
		}
		if len(s.groupings) == 0 {
			return nil, fmt.Errorf("storm: bolt %q has no input grouping", s.id)
		}
		for _, g := range s.groupings {
			src, ok := b.byID[g.Source]
			if !ok {
				return nil, fmt.Errorf("storm: bolt %q subscribes to unknown component %q", s.id, g.Source)
			}
			if src == s {
				return nil, fmt.Errorf("storm: bolt %q subscribes to itself", s.id)
			}
			if g.Type == FieldsGrouping && len(g.Fields) == 0 {
				return nil, fmt.Errorf("storm: bolt %q fields grouping on %q has no fields", s.id, g.Source)
			}
		}
	}
	if !hasSpout {
		return nil, fmt.Errorf("storm: topology has no spout")
	}
	order, err := topoOrder(b.specs, b.byID)
	if err != nil {
		return nil, err
	}
	markExclusiveInputs(b.specs)
	return &Topology{Name: b.name, specs: b.specs, byID: b.byID, order: order}, nil
}

// markExclusiveInputs sets exclusiveInput on every bolt that is the sole
// receiver of each tuple delivered to it (see TaskContext.ExclusiveInput).
func markExclusiveInputs(specs []*componentSpec) {
	type edge struct{ source, stream string }
	subscriptions := make(map[edge]int)
	for _, s := range specs {
		for _, g := range s.groupings {
			subscriptions[edge{g.Source, g.Stream}]++
		}
	}
	for _, s := range specs {
		s.exclusiveInput = !s.isSpout
		for _, g := range s.groupings {
			single := g.Type == ShuffleGrouping || g.Type == FieldsGrouping || g.Type == GlobalGrouping
			if !single || subscriptions[edge{g.Source, g.Stream}] != 1 {
				s.exclusiveInput = false
			}
		}
	}
}

// topoOrder returns component ids in topological order (Kahn's algorithm);
// cycles are rejected.
func topoOrder(specs []*componentSpec, byID map[string]*componentSpec) ([]string, error) {
	indeg := make(map[string]int, len(specs))
	succ := make(map[string][]string, len(specs))
	for _, s := range specs {
		indeg[s.id] += 0
		for _, g := range s.groupings {
			succ[g.Source] = append(succ[g.Source], s.id)
			indeg[s.id]++
		}
	}
	var frontier []string
	for id, d := range indeg {
		if d == 0 {
			frontier = append(frontier, id)
		}
	}
	sort.Strings(frontier)
	var order []string
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		next := succ[id]
		sort.Strings(next)
		for _, n := range next {
			indeg[n]--
			if indeg[n] == 0 {
				frontier = append(frontier, n)
			}
		}
	}
	if len(order) != len(specs) {
		return nil, fmt.Errorf("storm: topology contains a cycle")
	}
	return order, nil
}

// Components returns the component ids in topological order.
func (t *Topology) Components() []string {
	return append([]string(nil), t.order...)
}

// Parallelism returns (executors, tasks) for a component.
func (t *Topology) Parallelism(id string) (executors, tasks int, ok bool) {
	s, found := t.byID[id]
	if !found {
		return 0, 0, false
	}
	return s.executors, s.tasks, true
}
