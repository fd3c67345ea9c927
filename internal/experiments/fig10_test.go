package experiments

import (
	"testing"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/epl"
	"trafficcep/internal/sqlstore"
)

// newStore seeds a threshold store: location "areaA" has delay threshold 50
// (mean 40, stdv 10, s=1) at hour 8 weekdays; "areaB" has 100.
func newStore(t *testing.T) *sqlstore.ThresholdStore {
	t.Helper()
	store, err := sqlstore.NewThresholdStore(sqlstore.NewDB())
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

func delayRule(window int) core.Rule {
	return core.Rule{
		Name: "delayRule", Attribute: busdata.AttrDelay,
		Kind: core.QuadtreeLayer, Layer: 2, Window: window, Sensitivity: 1,
	}
}

// busEvent sends one enriched bus tuple into the engine.
func busEvent(t *testing.T, eng *cep.Engine, loc string, delay float64) {
	t.Helper()
	err := eng.SendEvent(core.BusStream, map[string]cep.Value{
		"layer2Area": loc,
		"hour":       8.0,
		"day":        busdata.Weekday.String(),
		"delay":      delay,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// install installs the rule under a strategy, with 50 as the static
// threshold, and counts the detections of every statement it added.
func install(t *testing.T, eng *cep.Engine, s Strategy, r core.Rule, store *sqlstore.ThresholdStore) ([]*cep.Statement, *int) {
	t.Helper()
	sts, err := installStrategy(eng, s, r, store, 50)
	if err != nil {
		t.Fatal(err)
	}
	n := new(int)
	for _, st := range sts {
		st.AddListener(func(_ *cep.Statement, outs []cep.Output) { *n += len(outs) })
	}
	return sts, n
}

// renderings are the rule template's EPL under each strategy.
var renderings = map[string]func(core.Rule) string{
	"stream": core.Rule.StreamEPL,
	"static": func(r core.Rule) string { return staticEPL(r, 42) },
	"joindb": joinDBEPL,
	"perloc": func(r core.Rule) string {
		return perLocationEPL(r, sqlstore.Threshold{Location: "areaA", Hour: 8, Day: busdata.Weekday, Value: 50})
	},
}

func TestRuleEPLAllVariantsParse(t *testing.T) {
	r := delayRule(10)
	for name, render := range renderings {
		if _, err := epl.Parse(render(r)); err != nil {
			t.Errorf("%s EPL does not parse: %v\n%s", name, err, render(r))
		}
	}
}

// TestRuleRenderingsPlanTrigger: every strategy's rendering of the rule
// template, on every location kind, registered plain or restricted to owned
// locations, beside the rule's thresholds table, registers, so the trigger
// plan runs it.
func TestRuleRenderingsPlanTrigger(t *testing.T) {
	store := newStore(t)
	for _, kind := range []core.LocationKind{core.BusStops, core.QuadtreeLeaves, core.QuadtreeLayer} {
		r := delayRule(10)
		r.Kind = kind
		for name, render := range renderings {
			src := render(r)
			for _, owned := range []bool{false, true} {
				eng := cep.New()
				registerDBThreshold(eng, store)
				tab, err := store.ThresholdTable(r.Attribute, r.Sensitivity)
				if err == nil {
					err = eng.RegisterTable(r.ThresholdStream(), tab)
				}
				if err != nil {
					t.Fatal(err)
				}
				if owned {
					_, err = eng.AddOwnedStatement(r.Name, src, core.BusStream, r.LocationField())
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

// exerciseStrategy installs the rule under a strategy and verifies the
// firing semantics shared by all strategies: areaA fires above 50, stays
// quiet below; areaB uses its own (higher) threshold.
func exerciseStrategy(t *testing.T, strategy Strategy) *cep.Engine {
	t.Helper()
	eng := cep.New()
	_, fired := install(t, eng, strategy, delayRule(2), newStore(t))

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
	sts, _ := install(t, eng, StrategyManyRules, delayRule(2), newStore(t))
	if len(sts) != 2 { // areaA + areaB
		t.Fatalf("statements = %d, want 2", len(sts))
	}
	if eng.StatementCount() != 2 {
		t.Fatalf("engine statements = %d", eng.StatementCount())
	}
}

func TestJoinDBUnknownLocationNeverFires(t *testing.T) {
	eng := cep.New()
	_, fired := install(t, eng, StrategyJoinDB, delayRule(1), newStore(t))
	busEvent(t, eng, "nowhere", 1e9)
	if *fired != 0 {
		t.Fatal("unknown location must resolve to +Inf threshold")
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
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
