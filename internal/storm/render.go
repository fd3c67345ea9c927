package storm

import (
	"fmt"
	"sort"
	"strings"
)

// String renders the topology as a compact multi-line description, one
// component per line in topological order with its parallelism and inputs.
func (t *Topology) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "topology %s\n", t.Name)
	for _, id := range t.order {
		spec := t.byID[id]
		kind := "bolt "
		if spec.isSpout {
			kind = "spout"
		}
		fmt.Fprintf(&sb, "  %s %-18s executors=%d tasks=%d", kind, id, spec.executors, spec.tasks)
		if len(spec.groupings) > 0 {
			var ins []string
			for _, g := range spec.groupings {
				in := fmt.Sprintf("%s(%s", g.Source, g.Type)
				if len(g.Fields) > 0 {
					in += ":" + strings.Join(g.Fields, ",")
				}
				if g.Stream != DefaultStream {
					in += "@" + g.Stream
				}
				ins = append(ins, in+")")
			}
			fmt.Fprintf(&sb, "  <- %s", strings.Join(ins, ", "))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DOT renders the topology in Graphviz dot syntax: spouts as double
// circles, bolts as boxes, edges labelled with the grouping.
func (t *Topology) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n", t.Name)
	for _, id := range t.order {
		spec := t.byID[id]
		shape := "box"
		if spec.isSpout {
			shape = "doublecircle"
		}
		fmt.Fprintf(&sb, "  %q [shape=%s,label=\"%s\\n%dx%d\"];\n",
			id, shape, id, spec.executors, spec.tasks)
	}
	for _, id := range t.order {
		spec := t.byID[id]
		for _, g := range spec.groupings {
			label := g.Type.String()
			if len(g.Fields) > 0 {
				label += "(" + strings.Join(g.Fields, ",") + ")"
			}
			if g.Stream != DefaultStream {
				label += " @" + g.Stream
			}
			fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", g.Source, id, label)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// PlacementTable renders the runtime's task placement as aligned text rows
// sorted by (worker, component, task) — the operator view of the
// scheduler's decision.
func (r *Runtime) PlacementTable() string {
	rows := r.Placements()
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.TaskIndex < b.TaskIndex
	})
	var sb strings.Builder
	sb.WriteString("worker  component           task  executor\n")
	for _, p := range rows {
		fmt.Fprintf(&sb, "%-7d %-19s %-5d %d\n", p.Worker, p.Component, p.TaskIndex, p.Executor)
	}
	return sb.String()
}
