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

func TestRuleEPLAllVariantsParse(t *testing.T) {
	r := delayRule(10)
	for name, src := range map[string]string{
		"stream": r.StreamEPL(),
		"static": r.StaticEPL(42),
		"joindb": r.JoinDBEPL(),
		"perloc": r.PerLocationEPL("areaA", 8, busdata.Weekday, 50),
	} {
		if _, err := epl.Parse(src); err != nil {
			t.Errorf("%s EPL does not parse: %v\n%s", name, err, src)
		}
	}
}

// TestRuleRenderingsPlanTrigger pins the premise of the CEP engine's one
// evaluator: every rendering of the rule template — each threshold
// strategy's EPL, on every location kind, registered plain or restricted to
// owned locations — registers, so the trigger plan runs it. A template edit
// that misses the plan's shape would be refused at registration.
func TestRuleRenderingsPlanTrigger(t *testing.T) {
	renderings := map[string]func(Rule) string{
		"stream": Rule.StreamEPL,
		"static": func(r Rule) string { return r.StaticEPL(42) },
		"joindb": Rule.JoinDBEPL,
		"perloc": func(r Rule) string { return r.PerLocationEPL("areaA", 8, busdata.Weekday, 50) },
	}
	store := newStore(t)
	for _, kind := range []LocationKind{BusStops, QuadtreeLeaves, QuadtreeLayer} {
		r := delayRule(10)
		r.Kind = kind
		for name, render := range renderings {
			src := render(r)
			for _, owned := range []bool{false, true} {
				eng := cep.New()
				registerDBThreshold(eng, store)
				var err error
				if owned {
					_, err = eng.AddOwnedStatement(r.Name, src, BusStream, r.LocationField())
				} else {
					_, err = eng.AddStatement(r.Name, src)
				}
				if err != nil {
					t.Errorf("%v %s owned=%v: %v\n%s", kind, name, owned, err, src)
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

// exerciseStrategy installs the rule under a strategy and verifies the
// firing semantics shared by all strategies: areaA fires above 50, stays
// quiet below; areaB uses its own (higher) threshold.
func exerciseStrategy(t *testing.T, strategy ThresholdStrategy) *cep.Engine {
	t.Helper()
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(2), InstallOptions{
		Strategy: strategy, Store: store, StaticThreshold: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := countFirings(inst)

	busEvent(t, eng, "areaA", 30)
	busEvent(t, eng, "areaA", 40) // avg 35 < 50
	if *fired != 0 {
		t.Fatalf("%v: premature firing", strategy)
	}
	busEvent(t, eng, "areaA", 80) // window {40,80} avg 60 > 50
	if *fired == 0 {
		t.Fatalf("%v: no firing above threshold", strategy)
	}
	*fired = 0
	busEvent(t, eng, "areaB", 60)
	busEvent(t, eng, "areaB", 70) // avg 65 < 100 (areaB threshold)
	if strategy != StrategyStatic && *fired != 0 {
		t.Fatalf("%v: areaB fired below its own threshold", strategy)
	}
	return eng
}

func TestStrategyStream(t *testing.T)    { exerciseStrategy(t, StrategyStream) }
func TestStrategyJoinDB(t *testing.T)    { exerciseStrategy(t, StrategyJoinDB) }
func TestStrategyManyRules(t *testing.T) { exerciseStrategy(t, StrategyManyRules) }
func TestStrategyStatic(t *testing.T)    { exerciseStrategy(t, StrategyStatic) }

func TestManyRulesCreatesOneStatementPerThreshold(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(2), InstallOptions{Strategy: StrategyManyRules, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Statements) != 2 { // areaA + areaB
		t.Fatalf("statements = %d, want 2", len(inst.Statements))
	}
	if eng.StatementCount() != 2 {
		t.Fatalf("engine statements = %d", eng.StatementCount())
	}
}

func TestLocationFilterRestrictsInstall(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(2), InstallOptions{
		Strategy:  StrategyManyRules,
		Store:     store,
		Locations: map[string]bool{"areaA": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Statements) != 1 || !strings.Contains(inst.Statements[0], "areaA") {
		t.Fatalf("statements = %v", inst.Statements)
	}
	fired := countFirings(inst)
	// areaB traffic must be invisible to this engine's rule set.
	busEvent(t, eng, "areaB", 1000)
	busEvent(t, eng, "areaB", 1000)
	if *fired != 0 {
		t.Fatal("filtered location fired")
	}
}

// TestRestrictedInstallMatchingNoThreshold: a restricted install whose
// locations match no stored threshold is not an error — an engine may own
// no location of a rule yet; only a store holding no threshold for the
// rule's attribute fails it, or the thresholds table.
func TestRestrictedInstallMatchingNoThreshold(t *testing.T) {
	store := newStore(t)
	for _, strategy := range []ThresholdStrategy{StrategyStream, StrategyManyRules} {
		eng := cep.New()
		inst, err := InstallRule(eng, delayRule(1), InstallOptions{Strategy: strategy, Store: store, Locations: map[string]bool{}})
		if err != nil {
			t.Fatalf("%v owning no location: %v", strategy, err)
		}
		fired := countFirings(inst)
		busEvent(t, eng, "areaA", 1e9)
		if *fired != 0 {
			t.Fatalf("%v owning no location fired", strategy)
		}
	}

	speed := delayRule(1)
	speed.Attribute = busdata.AttrSpeed
	for _, strategy := range []ThresholdStrategy{StrategyStream, StrategyManyRules} {
		_, err := InstallRule(cep.New(), speed, InstallOptions{Strategy: strategy, Store: store, Locations: map[string]bool{"areaA": true}})
		if err == nil || !strings.Contains(err.Error(), "no speed thresholds") {
			t.Fatalf("%v with no speed threshold stored: err = %v", strategy, err)
		}
	}
	if _, err := thresholdTable(store, speed); err == nil || !strings.Contains(err.Error(), "no speed thresholds") {
		t.Fatalf("table with no speed threshold stored: err = %v", err)
	}
}

func TestStrategyRequiresStore(t *testing.T) {
	eng := cep.New()
	for _, s := range []ThresholdStrategy{StrategyJoinDB, StrategyManyRules, StrategyStream} {
		if _, err := InstallRule(eng, delayRule(1), InstallOptions{Strategy: s}); err == nil {
			t.Errorf("%v without store must fail", s)
		}
	}
}

func TestJoinDBUnknownLocationNeverFires(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(1), InstallOptions{Strategy: StrategyJoinDB, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	fired := countFirings(inst)
	busEvent(t, eng, "nowhere", 1e9)
	if *fired != 0 {
		t.Fatal("unknown location must resolve to +Inf threshold")
	}
}

func TestRefreshPicksUpNewThresholds(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(1), InstallOptions{Strategy: StrategyStream, Store: store})
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

func TestRefreshKeepsListeners(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(1), InstallOptions{Strategy: StrategyStream, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	fired := countFirings(inst)
	if err := inst.Refresh(); err != nil {
		t.Fatal(err)
	}
	busEvent(t, eng, "areaA", 500)
	if *fired == 0 {
		t.Fatal("listener lost across refresh")
	}
}

func TestRemoveStopsRule(t *testing.T) {
	eng := cep.New()
	store := newStore(t)
	inst, err := InstallRule(eng, delayRule(1), InstallOptions{Strategy: StrategyStream, Store: store})
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

func TestStaticRefreshIsNoop(t *testing.T) {
	eng := cep.New()
	inst, err := InstallRule(eng, delayRule(1), InstallOptions{Strategy: StrategyStatic, StaticThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Refresh(); err != nil {
		t.Fatal(err)
	}
	if eng.StatementCount() != 1 {
		t.Fatalf("statements = %d", eng.StatementCount())
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[ThresholdStrategy]string{
		StrategyStatic:    "static",
		StrategyJoinDB:    "join-with-db",
		StrategyManyRules: "many-rules",
		StrategyStream:    "threshold-stream",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
