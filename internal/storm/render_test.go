package storm

import (
	"strings"
	"testing"
)

func renderTopo(t *testing.T) *Topology {
	t.Helper()
	b := NewTopologyBuilder("render")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 1, keys: 1} }, 2, 2)
	b.SetBolt("mid", func() Bolt { return &passBolt{} }, 1, 2).FieldsGrouping("src", "key")
	b.SetBolt("sink", func() Bolt { return &passBolt{} }, 1, 1).
		StreamGrouping("mid", "alerts", AllGrouping)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyString(t *testing.T) {
	s := renderTopo(t).String()
	for _, frag := range []string{
		"topology render",
		"spout src",
		"executors=2 tasks=2",
		"mid",
		"src(fields:key)",
		"mid(all@alerts)",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestTopologyDOT(t *testing.T) {
	dot := renderTopo(t).DOT()
	for _, frag := range []string{
		`digraph "render"`,
		`"src" [shape=doublecircle`,
		`"mid" [shape=box`,
		`"src" -> "mid" [label="fields(key)"]`,
		`"mid" -> "sink" [label="all @alerts"]`,
		"}",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT() missing %q:\n%s", frag, dot)
		}
	}
}

func TestPlacementTable(t *testing.T) {
	rt, err := New(renderTopo(t))
	if err != nil {
		t.Fatal(err)
	}
	table := rt.PlacementTable()
	lines := strings.Split(strings.TrimSpace(table), "\n")
	// Header + one row per task (2 + 2 + 1 = 5 tasks).
	if len(lines) != 6 {
		t.Fatalf("rows = %d:\n%s", len(lines), table)
	}
	if !strings.Contains(lines[0], "worker") || !strings.Contains(lines[0], "executor") {
		t.Fatalf("bad header: %s", lines[0])
	}
	for _, comp := range []string{"src", "mid", "sink"} {
		if !strings.Contains(table, comp) {
			t.Errorf("missing component %s", comp)
		}
	}
}
