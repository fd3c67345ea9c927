package core

import (
	"fmt"
	"sync"
	"testing"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
)

const sharedEngines = 4

// shippedRules returns the four rules of the shipped topology.
func shippedRules(t *testing.T) []Rule {
	t.Helper()
	xt, err := storm.ParseXML(TopologyXML)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := xt.RuleDefs()
	if err != nil {
		t.Fatal(err)
	}
	var rules []Rule
	for _, def := range defs {
		r, err := RuleFromDef(def)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	return rules
}

// sharedStore returns a store holding statistics for eight stops and eight
// leaves, at one hour and day type, for every attribute.
func sharedStore(t *testing.T) *sqlstore.ThresholdStore {
	t.Helper()
	store, err := sqlstore.NewThresholdStore(sqlstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	var stats []sqlstore.StatRow
	for _, attr := range busdata.Attributes {
		for i := 0; i < 8; i++ {
			for _, loc := range []string{fmt.Sprintf("s%d", i), fmt.Sprintf("q%d", i)} {
				stats = append(stats, sqlstore.StatRow{
					Attribute: attr, Location: loc, Hour: 8, Day: busdata.Weekday,
					Mean: 40 + float64(i), Stdv: 5,
				})
			}
		}
	}
	if err := store.Put(stats); err != nil {
		t.Fatal(err)
	}
	return store
}

// installShared installs rules into engine e, owning its share of the
// locations (every sharedEngines-th one).
func installShared(store *sqlstore.ThresholdStore, eng *cep.Engine, e int, rules []Rule) ([]*InstalledRule, error) {
	var insts []*InstalledRule
	for _, r := range rules {
		prefix := "s"
		if r.LocationField() == "leafArea" {
			prefix = "q"
		}
		locs := map[string]bool{}
		for i := e; i < 8; i += sharedEngines {
			locs[fmt.Sprintf("%s%d", prefix, i)] = true
		}
		inst, err := InstallRule(eng, r, InstallOptions{Store: store, Locations: locs})
		if err != nil {
			return nil, err
		}
		insts = append(insts, inst)
	}
	return insts, nil
}

type tableKey struct {
	attribute string
	s         float64
}

// heldTables returns the table each engine holds for each rule, by (attribute,
// s), failing unless engines and rules on one (attribute, s) hold the same
// one.
func heldTables(t *testing.T, engs []*cep.Engine, rules []Rule) map[tableKey]*cep.Table {
	t.Helper()
	held := map[tableKey]*cep.Table{}
	for e, eng := range engs {
		for _, r := range rules {
			got := eng.Table(r.ThresholdStream())
			if got == nil {
				t.Fatalf("engine %d: no table under %s", e, r.ThresholdStream())
			}
			k := tableKey{r.Attribute, r.Sensitivity}
			if want, ok := held[k]; ok && got != want {
				t.Fatalf("engine %d, rule %s: holds a table of its own for %v", e, r.Name, k)
			}
			held[k] = got
		}
	}
	return held
}

// setUpShared installs the shipped rules into sharedEngines engines over one
// store and checks that they ran one Listing-2 query per (attribute, s).
func setUpShared(t *testing.T) (*sqlstore.ThresholdStore, []*cep.Engine, []Rule, [][]*InstalledRule) {
	t.Helper()
	store := sharedStore(t)
	rules := shippedRules(t)
	before := store.DB().QueriesServed()
	engs := make([]*cep.Engine, sharedEngines)
	insts := make([][]*InstalledRule, sharedEngines)
	for e := range engs {
		engs[e] = cep.New()
		var err error
		if insts[e], err = installShared(store, engs[e], e, rules); err != nil {
			t.Fatal(err)
		}
	}
	held := heldTables(t, engs, rules)
	if len(held) != 3 {
		t.Fatalf("%d distinct (attribute, s) among the shipped rules, want 3", len(held))
	}
	if got := store.DB().QueriesServed() - before; got != 3 {
		t.Fatalf("%d engines × %d rules ran %d Listing-2 queries, want 3", sharedEngines, len(rules), got)
	}
	return store, engs, rules, insts
}

// TestDynamicSharedTablesOnePerAttribute installs the four shipped rules into
// four engines over one store: three queries in all, and one table per
// (attribute, s) that every engine holds.
func TestDynamicSharedTablesOnePerAttribute(t *testing.T) {
	setUpShared(t)
}

// refreshAll refreshes every installation and returns how many Listing-2
// queries that ran.
func refreshAll(t *testing.T, store *sqlstore.ThresholdStore, insts [][]*InstalledRule) uint64 {
	t.Helper()
	before := store.DB().QueriesServed()
	for _, per := range insts {
		for _, inst := range per {
			if err := inst.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store.DB().QueriesServed() - before
}

// TestDynamicSharedTablePutPublishesOneVersion writes one delay statistic
// through Put: the next round of refreshes builds one new delay table, which
// every engine then holds, and keeps the others.
func TestDynamicSharedTablePutPublishesOneVersion(t *testing.T) {
	store, engs, rules, insts := setUpShared(t)
	old := heldTables(t, engs, rules)
	if got := refreshAll(t, store, insts); got != 0 {
		t.Fatalf("a refresh with no write ran %d queries, want 0", got)
	}
	err := store.Put([]sqlstore.StatRow{
		{Attribute: busdata.AttrDelay, Location: "s0", Hour: 8, Day: busdata.Weekday, Mean: 10, Stdv: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := refreshAll(t, store, insts); got != 1 {
		t.Fatalf("refreshing after one delay write ran %d queries, want 1", got)
	}
	checkOneNewVersion(t, engs, rules, old, tableKey{busdata.AttrDelay, 1})
}

// TestDynamicSharedTableDirectWrite writes a speed statistic straight into
// the store's DB, not through Put: the version still advances.
func TestDynamicSharedTableDirectWrite(t *testing.T) {
	store, engs, rules, insts := setUpShared(t)
	old := heldTables(t, engs, rules)
	err := store.DB().Insert("statistics_"+busdata.AttrSpeed, sqlstore.Row{
		"attr_mean": 30.0, "attr_stdv": 2.0, "currentHour": 9.0,
		"dateType": busdata.Weekday.String(), "areaId1": "q0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := refreshAll(t, store, insts); got != 1 {
		t.Fatalf("refreshing after one direct speed write ran %d queries, want 1", got)
	}
	speed := tableKey{busdata.AttrSpeed, 1}
	checkOneNewVersion(t, engs, rules, old, speed)
	if got, want := heldTables(t, engs, rules)[speed].Len(), old[speed].Len()+1; got != want {
		t.Fatalf("the new speed table has %d rows, want %d", got, want)
	}
}

// checkOneNewVersion fails unless the engines hold a new table for changed,
// shared by all, and the old one for every other (attribute, s).
func checkOneNewVersion(t *testing.T, engs []*cep.Engine, rules []Rule, old map[tableKey]*cep.Table, changed tableKey) {
	t.Helper()
	for k, now := range heldTables(t, engs, rules) {
		if (now != old[k]) != (k == changed) {
			t.Fatalf("%v: table replaced = %v, want %v", k, now != old[k], k == changed)
		}
	}
}

// TestDynamicSharedTablesConcurrentInstall installs the shipped rules into
// engines from goroutines at once, as EsperBolt tasks prepare: each table is
// still built once.
func TestDynamicSharedTablesConcurrentInstall(t *testing.T) {
	store := sharedStore(t)
	rules := shippedRules(t)
	before := store.DB().QueriesServed()
	engs := make([]*cep.Engine, 2*sharedEngines)
	errs := make([]error, len(engs))
	var wg sync.WaitGroup
	for e := range engs {
		engs[e] = cep.New()
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			_, errs[e] = installShared(store, engs[e], e%sharedEngines, rules)
		}(e)
	}
	wg.Wait()
	for e, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", e, err)
		}
	}
	heldTables(t, engs, rules)
	if got := store.DB().QueriesServed() - before; got != 3 {
		t.Fatalf("%d engines installing at once ran %d Listing-2 queries, want 3", len(engs), got)
	}
}
