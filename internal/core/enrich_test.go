package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"trafficcep/internal/busdata"
	"trafficcep/internal/denclue"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/storm"
)

// Tests of the values the enrichment chain shares across rows: the
// AreaTracker's leaf table is built once, agrees with the tree, and nothing
// on the way writes into it.

// testStops clusters the stop observations of a small generated city.
func testStops(t testing.TB) *denclue.Result {
	t.Helper()
	cfg := busdata.DefaultConfig()
	cfg.Buses, cfg.Lines = 30, 5
	gen, err := busdata.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stops, err := denclue.Cluster(toObservations(gen.StopObservations(2)), denclue.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if stops.StopCount() == 0 {
		t.Fatal("no DENCLUE stops")
	}
	return stops
}

// pathIDs is the ids of tree.Path(p), root first.
func pathIDs(tree *quadtree.Tree, p geo.Point) []string {
	var ids []string
	for _, n := range tree.Path(p) {
		ids = append(ids, string(n.ID))
	}
	return ids
}

// checkLeafTable fails unless every leaf's entry in areas holds the ids of
// the tree's path to it, as boxes and as areaPath.
func checkLeafTable(t *testing.T, areas *areaTable) {
	t.Helper()
	leaves := areas.tree.Leaves()
	if len(areas.leaves) != len(leaves) {
		t.Fatalf("the table holds %d leaves, the tree %d", len(areas.leaves), len(leaves))
	}
	for _, leaf := range leaves {
		center := leaf.Bounds.Center()
		if areas.tree.Locate(center) != leaf {
			t.Fatalf("leaf %s does not hold its own centre", leaf.ID)
		}
		want := pathIDs(areas.tree, center)
		got, ok := areas.leaves[leaf]
		if !ok {
			t.Fatalf("leaf %s is missing from the table", leaf.ID)
		}
		if path, _ := got.path.([]string); !slices.Equal(path, want) {
			t.Fatalf("leaf %s: areaPath %v, want %v", leaf.ID, got.path, want)
		}
		if len(got.ids) != len(want) {
			t.Fatalf("leaf %s: %d layer ids, want %d", leaf.ID, len(got.ids), len(want))
		}
		for i, id := range got.ids {
			if id != want[i] {
				t.Fatalf("leaf %s: layer %d id %v, want %s", leaf.ID, i, id, want[i])
			}
		}
	}
}

// TestAreaTableMatchesTree holds the AreaTracker's output to Tree.Path for
// every leaf and for random points inside each: a layer<i>Area field per
// area of the path and no other, leafArea, and areaPath — whose backing
// array two rows in one leaf share. A point outside the tree gets no area
// field at all.
func TestAreaTableMatchesTree(t *testing.T) {
	tree := buildTestTree(t)
	areas := newAreaTable(tree)
	checkLeafTable(t, areas)
	if len(areas.layerFields) != tree.Depth()+1 {
		t.Fatalf("%d layer fields for a tree of depth %d", len(areas.layerFields), tree.Depth())
	}
	bolt := &areaTrackerBolt{areas: areas}
	if err := bolt.Prepare(storm.TaskContext{ExclusiveInput: true}); err != nil {
		t.Fatal(err)
	}
	col := &captureCollector{}
	enrich := func(p geo.Point) map[string]any {
		t.Helper()
		if err := bolt.Execute(storm.Tuple{Values: map[string]any{"lat": p.Lat, "lon": p.Lon}}, col); err != nil {
			t.Fatal(err)
		}
		return col.one(t, "AreaTracker")
	}

	rng := rand.New(rand.NewSource(9))
	for _, leaf := range tree.Leaves() {
		var first []string
		for i := 0; i < 8; i++ {
			b := leaf.Bounds
			p := geo.Point{
				Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
				Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
			}
			if i == 0 {
				p = b.Center()
			}
			want := pathIDs(tree, p)
			row := enrich(p)
			if len(row) != 2+len(want)+2 {
				t.Fatalf("%v: the row has %d fields, want lat, lon, %d layers, leafArea and areaPath: %v", p, len(row), len(want), row)
			}
			for l, id := range want {
				if got := row[Rule{Kind: QuadtreeLayer, Layer: l}.LocationField()]; got != id {
					t.Fatalf("%v: layer %d area %v, want %s", p, l, got, id)
				}
			}
			path, _ := row["areaPath"].([]string)
			if row["leafArea"] != want[len(want)-1] || !slices.Equal(path, want) {
				t.Fatalf("%v: leafArea %v, areaPath %v; want the leaf of %v", p, row["leafArea"], path, want)
			}
			if tree.Locate(p) != leaf {
				continue
			}
			if first == nil {
				first = path
			} else if unsafe.SliceData(path) != unsafe.SliceData(first) {
				t.Fatalf("leaf %s: two rows carry separate areaPath arrays", leaf.ID)
			}
		}
	}

	outside := enrich(geo.Point{Lat: geo.Dublin.MaxLat + 1, Lon: geo.Dublin.MinLon - 1})
	if len(outside) != 2 {
		t.Fatalf("a point outside the tree got area fields: %v", outside)
	}
}

// TestPayloadSharedAreasUntouched runs the pipeline over two workers at
// batch 64, with the history fold on, and then finds every leaf's shared
// values still equal to the tree's path: no bolt, no fold and no wire
// encoder wrote into a value the table lends to every row. Run it under
// -race.
func TestPayloadSharedAreasUntouched(t *testing.T) {
	r := newPayloadRig(t, 1)
	areas := newAreaTable(r.cfg.Tree)
	run := &pipelineRun{workers: 2, opts: []storm.Option{storm.WithBatchSize(64)},
		mutate: func(reg *storm.Registry, deps *Deps) {
			deps.Config.Manager = &DynamicManager{}
			reg.RegisterBolt("areatracker", func(map[string]string) (storm.BoltFactory, error) {
				return func() storm.Bolt { return &areaTrackerBolt{areas: areas} }, nil
			})
		}}
	run.run(t, r)
	if len(run.detections(t)) == 0 {
		t.Fatal("the pipeline detected nothing")
	}
	checkLeafTable(t, areas)
}

// BenchmarkEnrichmentChain prices one trace from its payload to its
// engines on exclusive edges — FillValues, PreProcess, AreaTracker,
// BusStopsTracker and the routing table — and reports the allocations.
func BenchmarkEnrichmentChain(b *testing.B) {
	r := newPayloadRig(b, 1)
	exclusive := storm.TaskContext{ExclusiveInput: true}
	bolts := []storm.Bolt{&preProcessBolt{}, &areaTrackerBolt{areas: newAreaTable(r.cfg.Tree)}, &busStopsTrackerBolt{}}
	for _, bolt := range bolts {
		if err := bolt.Prepare(exclusive); err != nil {
			b.Fatal(err)
		}
	}
	col := &captureCollector{}
	routed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := r.traces[i%len(r.traces)].FillValues(busdata.GetValues())
		for _, bolt := range bolts {
			if err := bolt.Execute(storm.Tuple{Values: row}, col); err != nil {
				b.Fatal(err)
			}
			col.emitted = col.emitted[:0]
		}
		routed += len(r.cfg.Routing.EnginesFor(row))
	}
	if routed == 0 {
		b.Fatal("no trace was routed")
	}
}
