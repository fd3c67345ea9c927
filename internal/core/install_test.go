package core

import (
	"math"
	"strings"
	"testing"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/epl"
	"trafficcep/internal/sqlstore"
)

// newStore seeds a threshold store: location "areaA" has delay threshold 50
// (mean 40, stdv 10, s=1) at hour 8 weekdays; "areaB" has 100.
func newStore(t *testing.T) *sqlstore.ThresholdStore {
	t.Helper()
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	err = store.Put([]sqlstore.StatRow{
		{Attribute: busdata.AttrDelay, Location: "areaA", Hour: 8, Day: busdata.Weekday, Mean: 40, Stdv: 10},
		{Attribute: busdata.AttrDelay, Location: "areaB", Hour: 8, Day: busdata.Weekday, Mean: 90, Stdv: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func delayRule(window int) Rule {
	return Rule{
		Name: "delayRule", Attribute: busdata.AttrDelay,
		Kind: QuadtreeLayer, Layer: 2, Window: window, Sensitivity: 1,
	}
}

// busEvent sends one enriched bus tuple into the engine.
func busEvent(t *testing.T, eng *cep.Engine, loc string, delay float64) {
	t.Helper()
	err := eng.SendEvent(BusStream, map[string]cep.Value{
		"layer2Area": loc,
		"hour":       8.0,
		"day":        busdata.Weekday.String(),
		"delay":      delay,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func countFirings(inst *InstalledRule) *int {
	n := new(int)
	inst.AddListener(func(_ *cep.Statement, outs []cep.Output) { *n += len(outs) })
	return n
}

// TestRuleEPLAllVariantsParse: the one rendering the product installs
// parses on every location kind (Figure 10's baselines are tested in
// internal/experiments).
func TestRuleEPLAllVariantsParse(t *testing.T) {
	for _, kind := range []LocationKind{BusStops, QuadtreeLeaves, QuadtreeLayer} {
		r := delayRule(10)
		r.Kind = kind
		if _, err := epl.Parse(r.StreamEPL()); err != nil {
			t.Errorf("%v stream EPL does not parse: %v\n%s", kind, err, r.StreamEPL())
		}
	}
}

// TestRuleRenderingsPlanTrigger pins the premise of the CEP engine's one
// evaluator: the rule template's rendering, on every location kind,
// registered plain or restricted to owned locations, over its thresholds
// table, registers, so the trigger plan runs it. A template edit that
// misses the plan's shape would be refused at registration, as the
// rendering is when its thresholds are a stream and not a table.
func TestRuleRenderingsPlanTrigger(t *testing.T) {
	store := newStore(t)
	for _, kind := range []LocationKind{BusStops, QuadtreeLeaves, QuadtreeLayer} {
		r := delayRule(10)
		r.Kind = kind
		src := r.StreamEPL()
		for _, table := range []bool{false, true} {
			for _, owned := range []bool{false, true} {
				eng := cep.New()
				if table {
					tab, err := thresholdTable(store, r)
					if err == nil {
						err = eng.RegisterTable(r.ThresholdStream(), tab)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				var err error
				if owned {
					_, err = eng.AddOwnedStatement(r.Name, src, BusStream, r.LocationField())
				} else {
					_, err = eng.AddStatement(r.Name, src)
				}
				switch {
				case table && err != nil:
					t.Errorf("%v owned=%v: %v\n%s", kind, owned, err, src)
				case !table && (err == nil || !strings.Contains(err.Error(), "not the trigger's stream")):
					t.Errorf("%v owned=%v over a thresholds stream: err = %v, want the second stream refused", kind, owned, err)
				}
			}
		}
	}
}

func TestRuleValidate(t *testing.T) {
	bad := []Rule{
		{Name: "", Attribute: busdata.AttrDelay, Window: 1},
		{Name: "x", Attribute: "nope", Window: 1},
		{Name: "x", Attribute: busdata.AttrDelay, Window: 0},
		{Name: "x", Attribute: busdata.AttrDelay, Window: 1, Kind: QuadtreeLayer, Layer: -1},
		{Name: "x", Attribute: busdata.AttrDelay, Window: 1, Sensitivity: math.NaN()},
		{Name: "x", Attribute: busdata.AttrDelay, Window: 1, Sensitivity: math.Inf(1)},
		{Name: "x", Attribute: busdata.AttrDelay, Window: 1, Sensitivity: math.Inf(-1)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if err := delayRule(10).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLocationFields(t *testing.T) {
	if f := (Rule{Kind: BusStops}).LocationField(); f != "stopId" {
		t.Errorf("stops field = %q", f)
	}
	if f := (Rule{Kind: QuadtreeLeaves}).LocationField(); f != "leafArea" {
		t.Errorf("leaves field = %q", f)
	}
	if f := (Rule{Kind: QuadtreeLayer, Layer: 3}).LocationField(); f != "layer3Area" {
		t.Errorf("layer field = %q", f)
	}
}

// TestStrategyStream installs the rule and verifies the firing semantics
// Figure 10's strategies share: areaA fires above 50, stays quiet below;
// areaB uses its own (higher) threshold. InstallRule adds one statement.
func TestStrategyStream(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(2), InstallOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	fired := countFirings(inst)

	busEvent(t, eng, "areaA", 30)
	busEvent(t, eng, "areaA", 40) // avg 35 < 50
	if *fired != 0 {
		t.Fatal("premature firing")
	}
	busEvent(t, eng, "areaA", 80) // window {40,80} avg 60 > 50
	if *fired == 0 {
		t.Fatal("no firing above threshold")
	}
	*fired = 0
	busEvent(t, eng, "areaB", 60)
	busEvent(t, eng, "areaB", 70) // avg 65 < 100 (areaB threshold)
	if *fired != 0 {
		t.Fatal("areaB fired below its own threshold")
	}
	if eng.StatementCount() != 1 {
		t.Fatalf("engine statements = %d, want 1", eng.StatementCount())
	}
}

// TestRestrictedInstallMatchingNoThreshold: a restricted install whose
// locations match no stored threshold is not an error — an engine may own
// no location of a rule yet; only a store holding no threshold for the
// rule's attribute fails it, or the thresholds table.
func TestRestrictedInstallMatchingNoThreshold(t *testing.T) {
	store := newStore(t)
	eng := cep.New()
	inst, err := InstallRule(eng, delayRule(1), InstallOptions{Store: store, Locations: map[string]bool{}})
	if err != nil {
		t.Fatalf("owning no location: %v", err)
	}
	fired := countFirings(inst)
	busEvent(t, eng, "areaA", 1e9)
	if *fired != 0 {
		t.Fatal("owning no location fired")
	}

	speed := delayRule(1)
	speed.Attribute = busdata.AttrSpeed
	eng = cep.New()
	_, err = InstallRule(eng, speed, InstallOptions{Store: store, Locations: map[string]bool{"areaA": true}})
	if err == nil || !strings.Contains(err.Error(), "no speed thresholds") {
		t.Fatalf("with no speed threshold stored: err = %v", err)
	}
	if eng.StatementCount() != 0 {
		t.Fatalf("a failed install left %d statements", eng.StatementCount())
	}
	if _, err := thresholdTable(store, speed); err == nil || !strings.Contains(err.Error(), "no speed thresholds") {
		t.Fatalf("table with no speed threshold stored: err = %v", err)
	}
}

func TestStrategyRequiresStore(t *testing.T) {
	if _, err := InstallRule(cep.New(), delayRule(1), InstallOptions{}); err == nil {
		t.Error("an install without a store must fail")
	}
}

func TestRefreshPicksUpNewThresholds(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(1), InstallOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	fired := countFirings(inst)
	busEvent(t, eng, "areaA", 60) // > 50, fires
	if *fired == 0 {
		t.Fatal("expected firing before refresh")
	}
	// The batch layer raises areaA's mean: threshold becomes 200.
	err = store.Put([]sqlstore.StatRow{
		{Attribute: busdata.AttrDelay, Location: "areaA", Hour: 8, Day: busdata.Weekday, Mean: 190, Stdv: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Refresh(); err != nil {
		t.Fatal(err)
	}
	*fired = 0
	busEvent(t, eng, "areaA", 60) // < 200 now
	if *fired != 0 {
		t.Fatal("refresh did not raise the threshold")
	}
	busEvent(t, eng, "areaA", 500)
	if *fired == 0 {
		t.Fatal("rule dead after refresh")
	}
}

// TestRefreshKeepsListeners: a refresh, by hand or by a batch run that
// publishes a new statistics version, keeps the rule's one statement — the
// same *cep.Statement, the engine's statement count unchanged — and its
// listener, called once per detection.
func TestRefreshKeepsListeners(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(1), InstallOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	st := inst.Statement
	calls := 0
	inst.AddListener(func(_ *cep.Statement, outs []cep.Output) {
		calls++
		if len(outs) != 1 {
			t.Errorf("one call carried %d detections", len(outs))
		}
	})
	if err := inst.Refresh(); err != nil {
		t.Fatal(err)
	}
	busEvent(t, eng, "areaA", 500)
	if calls != 1 {
		t.Fatalf("%d detections after a refresh, want 1", calls)
	}

	m := &DynamicManager{Store: store}
	m.Register(inst)
	before := eng.Table(delayRule(1).ThresholdStream())
	for _, d := range []float64{190, 200, 210} { // areaA's threshold becomes 200 + 10
		if err := m.AppendHistory(HistoryRecord{Hour: 8, Day: busdata.Weekday, Areas: []string{"areaA"}, Delay: d}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if eng.Table(delayRule(1).ThresholdStream()) == before {
		t.Fatal("the batch run published no new thresholds table")
	}
	if inst.Statement != st || eng.StatementCount() != 1 {
		t.Fatalf("the batch run replaced the statement (same: %v) or changed the count to %d", inst.Statement == st, eng.StatementCount())
	}
	calls = 0
	busEvent(t, eng, "areaA", 205) // below the new threshold
	for i := 0; i < 3; i++ {
		busEvent(t, eng, "areaA", 500)
	}
	if calls != 3 {
		t.Fatalf("%d detections of 3 after the batch run", calls)
	}
}

func TestRemoveStopsRule(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(1), InstallOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	fired := countFirings(inst)
	inst.Remove()
	busEvent(t, eng, "areaA", 500)
	if *fired != 0 {
		t.Fatal("removed rule fired")
	}
	if eng.StatementCount() != 0 {
		t.Fatalf("statements remain: %d", eng.StatementCount())
	}
}
