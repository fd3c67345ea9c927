package storm

import (
	"os"
	"strings"
	"sync"
	"testing"
)

func testRegistry(counter *int, mu *sync.Mutex) *Registry {
	reg := NewRegistry()
	reg.RegisterSpout("numbers", func(params map[string]string) (SpoutFactory, error) {
		n := 10
		if params["count"] == "25" {
			n = 25
		}
		return func() Spout { return &seqSpout{n: n, keys: 5} }, nil
	})
	reg.RegisterBolt("pass", func(map[string]string) (BoltFactory, error) {
		return func() Bolt { return &passBolt{} }, nil
	})
	reg.RegisterBolt("count", func(map[string]string) (BoltFactory, error) {
		return func() Bolt {
			return &funcBolt{exec: func(Tuple, Collector) error {
				mu.Lock()
				*counter++
				mu.Unlock()
				return nil
			}}
		}, nil
	})
	return reg
}

const topologyXML = `
<topology name="xmltest">
  <spout id="src" type="numbers" executors="1" tasks="1">
    <param name="count" value="25"/>
  </spout>
  <bolt id="mid" type="pass" executors="2" tasks="2">
    <grouping type="fields" source="src" fields="key"/>
  </bolt>
  <bolt id="sink" type="count" executors="1" tasks="1">
    <grouping type="shuffle" source="mid"/>
  </bolt>
  <rules>
    <rule name="tmpl" attribute="delay" location="stops" window="10" s="2"/>
    <rule attribute="speed"/>
  </rules>
</topology>`

func TestLoadXMLRunsTopology(t *testing.T) {
	var mu sync.Mutex
	count := 0
	reg := testRegistry(&count, &mu)
	topo, rules, err := LoadXML([]byte(topologyXML), reg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "xmltest" {
		t.Fatalf("name = %q", topo.Name)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	if rules[0].Name != "tmpl" || rules[0].Attribute != "delay" || rules[0].Location != "stops" ||
		rules[0].Window != 10 || rules[0].Sensitivity != 2 {
		t.Fatalf("template rule = %+v", rules[0])
	}
	if rules[1].Name != "rule-2" {
		t.Fatalf("unnamed rule named %q, want its position", rules[1].Name)
	}
	rt, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 25 {
		t.Fatalf("sink saw %d tuples, want 25 (param plumbed through)", count)
	}
}

func TestLoadXMLErrors(t *testing.T) {
	var mu sync.Mutex
	count := 0
	reg := testRegistry(&count, &mu)
	cases := []struct {
		name string
		xml  string
		want string
	}{
		{"bad xml", `<topology`, "parsing topology XML"},
		{"no name", `<topology></topology>`, "no name"},
		{"unknown spout", `<topology name="t"><spout id="s" type="ghost"/></topology>`, "unknown spout type"},
		{"unknown bolt", `<topology name="t"><spout id="s" type="numbers"/><bolt id="b" type="ghost"><grouping source="s"/></bolt></topology>`, "unknown bolt type"},
		{"spout grouping", `<topology name="t"><spout id="s" type="numbers"><grouping source="s"/></spout></topology>`, "must not declare groupings"},
		{"bad grouping type", `<topology name="t"><spout id="s" type="numbers"/><bolt id="b" type="pass"><grouping type="psychic" source="s"/></bolt></topology>`, "unknown grouping type"},
		{"empty rule", `<topology name="t"><spout id="s" type="numbers"/><bolt id="b" type="pass"><grouping source="s"/></bolt><rules><rule name="x"> </rule></rules></topology>`, "has no attribute; a rule is a template instance, given by the attribute"},
		{"raw EPL rule", `<topology name="t"><spout id="s" type="numbers"/><bolt id="b" type="pass"><grouping source="s"/></bolt><rules><rule name="x" attribute="delay">SELECT * FROM bus.std:lastevent() AS b</rule></rules></topology>`, "has body text; a rule is a template instance, given by the attribute"},
		{"unknown source", `<topology name="t"><spout id="s" type="numbers"/><bolt id="b" type="pass"><grouping source="ghost"/></bolt></topology>`, "unknown component"},
	}
	for _, c := range cases {
		_, _, err := LoadXML([]byte(c.xml), reg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestLoadXMLDefaultShuffleGrouping(t *testing.T) {
	var mu sync.Mutex
	count := 0
	reg := testRegistry(&count, &mu)
	xml := `<topology name="t">
	  <spout id="s" type="numbers"/>
	  <bolt id="b" type="count"><grouping source="s"/></bolt>
	</topology>`
	topo, _, err := LoadXML([]byte(xml), reg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
}

func TestLoadXMLRuleDefaultsName(t *testing.T) {
	var mu sync.Mutex
	count := 0
	reg := testRegistry(&count, &mu)
	xml := `<topology name="t">
	  <spout id="s" type="numbers"/>
	  <bolt id="b" type="pass"><grouping source="s"/></bolt>
	  <rules><rule attribute="speed"/></rules>
	</topology>`
	_, rules, err := LoadXML([]byte(xml), reg)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Name != "rule-1" {
		t.Fatalf("default name = %q", rules[0].Name)
	}
}

func TestConstructorErrorsPropagate(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterSpout("numbers", func(map[string]string) (SpoutFactory, error) {
		return func() Spout { return &seqSpout{n: 1, keys: 1} }, nil
	})
	reg.RegisterBolt("broken", func(params map[string]string) (BoltFactory, error) {
		return nil, &SyntaxishError{"bolt needs a frobnicator"}
	})
	xml := `<topology name="t">
	  <spout id="s" type="numbers"/>
	  <bolt id="b" type="broken"><grouping source="s"/></bolt>
	</topology>`
	_, _, err := LoadXML([]byte(xml), reg)
	if err == nil || !strings.Contains(err.Error(), "frobnicator") {
		t.Fatalf("err = %v", err)
	}
}

// SyntaxishError is a trivial error type for constructor-failure tests.
type SyntaxishError struct{ msg string }

func (e *SyntaxishError) Error() string { return e.msg }

// FuzzParseXML feeds arbitrary documents through the loader's three steps
// — ParseXML, RuleDefs, Build over a registry of stub constructors for
// every component type the seeds name — which may reject a document but
// must never panic. Seeds: the shipped Figure-8 document and this file's
// test topology.
func FuzzParseXML(f *testing.F) {
	shipped, err := os.ReadFile("../core/topology.xml")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shipped)
	f.Add([]byte(topologyXML))
	reg := NewRegistry()
	for _, typ := range []string{"busreader", "numbers"} {
		reg.RegisterSpout(typ, func(map[string]string) (SpoutFactory, error) {
			return func() Spout { return &seqSpout{n: 1, keys: 1} }, nil
		})
	}
	for _, typ := range []string{"preprocess", "areatracker", "busstops", "splitter", "esper", "eventsstorer", "pass", "count"} {
		reg.RegisterBolt(typ, func(map[string]string) (BoltFactory, error) {
			return func() Bolt { return &passBolt{} }, nil
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xt, err := ParseXML(data)
		if err != nil {
			return
		}
		_, _ = xt.RuleDefs()
		_, _ = xt.Build(reg)
	})
}

func TestParseXMLFieldsSplitting(t *testing.T) {
	xml := `<topology name="t">
	  <spout id="s" type="numbers"/>
	  <bolt id="b" type="pass"><grouping type="fields" source="s" fields=" a , b ,c"/></bolt>
	</topology>`
	reg := NewRegistry()
	reg.RegisterSpout("numbers", func(map[string]string) (SpoutFactory, error) {
		return func() Spout { return &seqSpout{n: 1, keys: 1} }, nil
	})
	reg.RegisterBolt("pass", func(map[string]string) (BoltFactory, error) {
		return func() Bolt { return &passBolt{} }, nil
	})
	topo, _, err := LoadXML([]byte(xml), reg)
	if err != nil {
		t.Fatal(err)
	}
	spec := topo.byID["b"]
	if len(spec.groupings) != 1 {
		t.Fatalf("groupings = %d", len(spec.groupings))
	}
	g := spec.groupings[0]
	if len(g.Fields) != 3 || g.Fields[0] != "a" || g.Fields[1] != "b" || g.Fields[2] != "c" {
		t.Fatalf("fields = %v", g.Fields)
	}
}
