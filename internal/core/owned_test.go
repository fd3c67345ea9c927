package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// TestDifferentialOwnedLocations holds engines that window and evaluate only
// the locations they own to engines that run every statement on every
// delivery. One random feed is routed over four engines by random stop and
// leaf partitions, as the Splitter routes it (EnginesFor), into two sets of
// engines: the product's, with the shipped four rules installed by
// InstallRule on each engine's share, and a reference built here from
// AddStatement(StreamEPL) over a table of the same share's thresholds, which
// windows every delivery under every rule. A trace reaches the engine of its stop and
// the engine of its leaf, so the reference windows leaf rules under stops
// and stop rules under leaves its engine does not own, and misses their
// thresholds; the two detection multisets, engine included, must be equal.
func TestDifferentialOwnedLocations(t *testing.T) {
	xt, err := storm.ParseXML(TopologyXML)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := xt.RuleDefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 10, 100} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			var rules []Rule
			for _, def := range defs {
				r, err := RuleFromDef(def)
				if err != nil {
					t.Fatal(err)
				}
				r.Window = window
				rules = append(rules, r)
			}
			testOwnedLocations(t, rand.New(rand.NewSource(int64(window))), rules)
		})
	}
}

func testOwnedLocations(t *testing.T, rng *rand.Rand, rules []Rule) {
	const (
		engines = 4
		hours   = 3
		events  = 4000
	)
	locations := map[string][]string{}
	for i := 0; i < 24; i++ {
		locations["stopId"] = append(locations["stopId"], fmt.Sprintf("s%02d", i))
	}
	for i := 0; i < 16; i++ {
		locations["leafArea"] = append(locations["leafArea"], fmt.Sprintf("q%02d", i))
	}
	days := []busdata.DayType{busdata.Weekday, busdata.Weekend}

	// Thresholds for most (location, hour, day) keys of every attribute, and
	// for every location at least one.
	store, err := sqlstore.NewThresholdStore(sqlstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	var stats []sqlstore.StatRow
	for _, r := range rules {
		for _, loc := range locations[r.LocationField()] {
			for h := 0; h < hours; h++ {
				for _, day := range days {
					if (h > 0 || day != busdata.Weekday) && rng.Float64() < 0.2 {
						continue
					}
					stats = append(stats, sqlstore.StatRow{
						Attribute: r.Attribute, Location: loc, Hour: h, Day: day,
						Mean: 20 + 40*rng.Float64(), Stdv: 10 * rng.Float64(),
					})
				}
			}
		}
	}
	if err := store.Put(stats); err != nil {
		t.Fatal(err)
	}

	// Random partitions of both fields; every engine gets some of each.
	table := NewRoutingTable(RouteByLocation, engines)
	parts := map[string]*Partition{}
	for field, locs := range locations {
		p := &Partition{Engines: make([][]RegionRate, engines), Rate: make([]float64, engines), ByLocation: map[string]int{}}
		for i, loc := range locs {
			e := rng.Intn(engines)
			if i < engines {
				e = i
			}
			p.Engines[e] = append(p.Engines[e], RegionRate{Location: loc, Rate: 1})
			p.Rate[e]++
			p.ByLocation[loc] = e
		}
		parts[field] = p
		if err := table.AddPartition(field, p, []int{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}

	record := func(into map[string]int, engine int) cep.Listener {
		return func(st *cep.Statement, outs []cep.Output) {
			for _, o := range outs {
				into[fmt.Sprintf("%d|%s|%v|%v|%v", engine, st.Name, o.Fields["location"], o.Fields["observed"], o.Fields["threshold"])]++
			}
		}
	}
	owned, unrestricted := map[string]int{}, map[string]int{}
	product := make([]*cep.Engine, engines)
	reference := make([]*cep.Engine, engines)
	for e := 0; e < engines; e++ {
		product[e], reference[e] = cep.New(), cep.New()
		for _, r := range rules {
			locs := table.Locations(r.LocationField(), e)
			inst, err := InstallRule(product[e], r, InstallOptions{
				Store: store, Locations: locs,
			})
			if err != nil {
				t.Fatal(err)
			}
			inst.AddListener(record(owned, e))
			if inst.Statement.Name != r.Name {
				t.Fatalf("rule %s installed as %s", r.Name, inst.Statement.Name)
			}
			if err := registerShareTable(reference[e], r, store, locs); err != nil {
				t.Fatal(err)
			}
			st, err := reference[e].AddStatement(r.Name, r.StreamEPL())
			if err != nil {
				t.Fatal(err)
			}
			st.AddListener(record(unrestricted, e))
		}
	}

	base := time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)
	deliveries := 0
	for i := 0; i < events; i++ {
		stops, leaves := locations["stopId"], locations["leafArea"]
		stop := stops[rng.Intn(len(stops))]
		if rng.Float64() < 0.05 {
			stop = "" // a trace with no stop reaches its leaf's engine only
		}
		fields := map[string]any{
			"stopId": stop, "leafArea": leaves[rng.Intn(len(leaves))],
			"hour": float64(rng.Intn(hours)), "day": days[rng.Intn(len(days))].String(),
			busdata.AttrDelay: 100 * rng.Float64(), busdata.AttrSpeed: 100 * rng.Float64(),
			busdata.AttrActualDelay: 100*rng.Float64() - 20,
		}
		ts := base.Add(time.Duration(i) * time.Second)
		for _, e := range table.EnginesFor(fields) {
			deliveries++
			for _, eng := range []*cep.Engine{product[e], reference[e]} {
				if err := eng.SendEventAt(BusStream, ts, fields); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if deliveries <= events {
		t.Fatalf("%d deliveries for %d events: no trace reached two engines", deliveries, events)
	}
	reg := telemetry.NewRegistry()
	skipped := uint64(0)
	for _, eng := range product {
		eng.Collect(reg)
		skipped += reg.Counter("cep.events_unowned").Load()
	}
	if skipped == 0 {
		t.Fatal("the owning engines skipped no statement turn: the restriction never acted")
	}

	for _, r := range rules {
		fired := false
		for k := range unrestricted {
			fired = fired || strings.Contains(k, "|"+r.Name+"|")
		}
		if !fired {
			t.Fatalf("rule %s never fired", r.Name)
		}
	}
	for k, n := range owned {
		if unrestricted[k] != n {
			t.Fatalf("detection %q: %d on the owning engines, %d on the unrestricted ones", k, n, unrestricted[k])
		}
	}
	for k, n := range unrestricted {
		if owned[k] != n {
			t.Fatalf("detection %q: %d on the unrestricted engines, %d on the owning ones", k, n, owned[k])
		}
	}
}

// registerShareTable registers as the rule's thresholds table the rule's
// stored thresholds for locations, in the store's order.
func registerShareTable(eng *cep.Engine, r Rule, store *sqlstore.ThresholdStore, locations map[string]bool) error {
	ths, err := store.Thresholds(r.Attribute, r.Sensitivity)
	if err != nil {
		return err
	}
	var rows []map[string]cep.Value
	for _, th := range ths {
		if locations[th.Location] {
			rows = append(rows, map[string]cep.Value{
				"location": th.Location, "hour": float64(th.Hour), "day": th.Day.String(), "value": th.Value,
			})
		}
	}
	tab, err := cep.NewTable([]string{"location", "hour", "day", "value"}, 3, rows)
	if err != nil {
		return err
	}
	return eng.RegisterTable(r.ThresholdStream(), tab)
}
