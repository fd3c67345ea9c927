package quadtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trafficcep/internal/geo"
)

func unitBounds() geo.Rect {
	return geo.NewRect(geo.Point{Lat: 0, Lon: 0}, geo.Point{Lat: 1, Lon: 1})
}

func TestEmptyTree(t *testing.T) {
	tr := New(unitBounds(), Options{})
	if tr.Size() != 0 {
		t.Fatalf("size = %d", tr.Size())
	}
	if tr.NodeCount() != 1 {
		t.Fatalf("nodes = %d", tr.NodeCount())
	}
	n := tr.Locate(geo.Point{Lat: 0.5, Lon: 0.5})
	if n == nil || n.ID != "0" {
		t.Fatalf("locate in empty tree = %v", n)
	}
}

func TestInsertOutsideBounds(t *testing.T) {
	tr := New(unitBounds(), Options{})
	if err := tr.Insert(geo.Point{Lat: 2, Lon: 2}); err == nil {
		t.Fatal("expected error for out-of-bounds insert")
	}
}

func TestSplitAfterMaxPoints(t *testing.T) {
	tr := New(unitBounds(), Options{MaxPoints: 2})
	pts := []geo.Point{
		{Lat: 0.1, Lon: 0.1},
		{Lat: 0.9, Lon: 0.9},
		{Lat: 0.1, Lon: 0.9},
	}
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 after split", tr.Depth())
	}
	if got := tr.NodeCount(); got != 5 {
		t.Fatalf("nodes = %d, want 5", got)
	}
}

func TestUnbalancedSplit(t *testing.T) {
	// All points clustered in one corner: the tree must become deep on
	// that side only, like the Figure 6 tree over Dublin landmarks.
	tr := New(unitBounds(), Options{MaxPoints: 1, MaxDepth: 20})
	pts := []geo.Point{
		{Lat: 0.01, Lon: 0.01},
		{Lat: 0.02, Lon: 0.02},
		{Lat: 0.03, Lon: 0.03},
		{Lat: 0.04, Lon: 0.04},
	}
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Depth() < 3 {
		t.Fatalf("depth = %d, want >= 3 for clustered points", tr.Depth())
	}
	// The far corner leaf must still be shallow.
	n := tr.Locate(geo.Point{Lat: 0.9, Lon: 0.9})
	if n.Depth != 1 {
		t.Fatalf("far corner depth = %d, want 1", n.Depth)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	tr := New(unitBounds(), Options{MaxPoints: 1, MaxDepth: 3})
	// Identical points can never be separated; the depth cap must stop
	// recursion.
	for i := 0; i < 10; i++ {
		if err := tr.Insert(geo.Point{Lat: 0.25, Lon: 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	if d := tr.Depth(); d > 3 {
		t.Fatalf("depth = %d, want <= 3", d)
	}
}

func TestLocateFindsContainingLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seeds []geo.Point
	for i := 0; i < 500; i++ {
		seeds = append(seeds, geo.Point{Lat: rng.Float64(), Lon: rng.Float64()})
	}
	tr, err := Build(unitBounds(), seeds, Options{MaxPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := geo.Point{Lat: rng.Float64(), Lon: rng.Float64()}
		n := tr.Locate(p)
		if n == nil {
			t.Fatalf("no leaf for %v", p)
		}
		if !n.Bounds.Contains(p) {
			t.Fatalf("leaf %s bounds %+v do not contain %v", n.ID, n.Bounds, p)
		}
		if !n.IsLeaf() {
			t.Fatalf("Locate returned non-leaf %s", n.ID)
		}
	}
}

func TestLocateOutside(t *testing.T) {
	tr := New(unitBounds(), Options{})
	if tr.Locate(geo.Point{Lat: -1, Lon: 0.5}) != nil {
		t.Fatal("expected nil for point outside bounds")
	}
	if tr.LocateAtLayer(geo.Point{Lat: -1, Lon: 0.5}, 2) != nil {
		t.Fatal("expected nil for point outside bounds at layer")
	}
	if tr.Path(geo.Point{Lat: 5, Lon: 5}) != nil {
		t.Fatal("expected nil path for outside point")
	}
}

func buildRandomTree(t *testing.T, n int, seed int64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var seeds []geo.Point
	for i := 0; i < n; i++ {
		seeds = append(seeds, geo.Point{Lat: rng.Float64(), Lon: rng.Float64()})
	}
	tr, err := Build(unitBounds(), seeds, Options{MaxPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLayerTilesSpace(t *testing.T) {
	tr := buildRandomTree(t, 300, 11)
	rng := rand.New(rand.NewSource(13))
	for layer := 0; layer <= tr.Depth()+1; layer++ {
		regions := tr.Layer(layer)
		for i := 0; i < 100; i++ {
			p := geo.Point{Lat: rng.Float64(), Lon: rng.Float64()}
			count := 0
			for _, r := range regions {
				if r.Bounds.Contains(p) {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("layer %d: point %v in %d regions, want exactly 1", layer, p, count)
			}
		}
	}
}

func TestLocateAtLayerConsistentWithLayer(t *testing.T) {
	tr := buildRandomTree(t, 300, 17)
	rng := rand.New(rand.NewSource(19))
	for layer := 0; layer <= 4; layer++ {
		regions := tr.Layer(layer)
		ids := make(map[AreaID]bool, len(regions))
		for _, r := range regions {
			ids[r.ID] = true
		}
		for i := 0; i < 100; i++ {
			p := geo.Point{Lat: rng.Float64(), Lon: rng.Float64()}
			n := tr.LocateAtLayer(p, layer)
			if n == nil {
				t.Fatalf("no region at layer %d for %v", layer, p)
			}
			if !ids[n.ID] {
				t.Fatalf("LocateAtLayer returned %s which is not in Layer(%d)", n.ID, layer)
			}
			if !n.Bounds.Contains(p) {
				t.Fatalf("region %s does not contain %v", n.ID, p)
			}
		}
	}
}

func TestPathIsNested(t *testing.T) {
	tr := buildRandomTree(t, 300, 23)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 50; i++ {
		p := geo.Point{Lat: rng.Float64(), Lon: rng.Float64()}
		path := tr.Path(p)
		if len(path) == 0 {
			t.Fatal("empty path")
		}
		if path[0].ID != "0" {
			t.Fatalf("path must start at root, got %s", path[0].ID)
		}
		last := path[len(path)-1]
		if !last.IsLeaf() {
			t.Fatal("path must end at a leaf")
		}
		for j := range path {
			if path[j].Depth != j {
				t.Fatalf("path[%d].Depth = %d", j, path[j].Depth)
			}
			if !path[j].Bounds.Contains(p) {
				t.Fatalf("path node %s does not contain point", path[j].ID)
			}
		}
	}
}

// TestPathAllocatesOnce: a Path is one allocation, sized by the tree's
// depth, which Depth reports as the deepest node's.
func TestPathAllocatesOnce(t *testing.T) {
	tr := buildRandomTree(t, 300, 31)
	deepest := 0
	tr.Walk(func(n *Node) { deepest = max(deepest, n.Depth) })
	if tr.Depth() != deepest || deepest < 4 {
		t.Fatalf("Depth() = %d, deepest node %d; want them equal and at least 4", tr.Depth(), deepest)
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 20; i++ {
		p := geo.Point{Lat: rng.Float64(), Lon: rng.Float64()}
		if allocs := testing.AllocsPerRun(20, func() { _ = tr.Path(p) }); allocs != 1 {
			t.Fatalf("Path(%v) made %v allocations, want 1", p, allocs)
		}
	}
}

func TestLeavesPartitionSeeds(t *testing.T) {
	tr := buildRandomTree(t, 200, 31)
	total := 0
	for _, l := range tr.Leaves() {
		total += len(l.Points)
		if !l.IsLeaf() {
			t.Fatal("Leaves returned internal node")
		}
	}
	if total != tr.Size() {
		t.Fatalf("leaves hold %d points, tree size %d", total, tr.Size())
	}
}

func TestQueryRegion(t *testing.T) {
	tr := buildRandomTree(t, 400, 37)
	q := geo.NewRect(geo.Point{Lat: 0.2, Lon: 0.2}, geo.Point{Lat: 0.4, Lon: 0.4})
	hits := tr.QueryRegion(q)
	if len(hits) == 0 {
		t.Fatal("expected hits")
	}
	hitIDs := make(map[AreaID]bool)
	for _, h := range hits {
		if !h.Bounds.Intersects(q) {
			t.Fatalf("hit %s does not intersect query", h.ID)
		}
		hitIDs[h.ID] = true
	}
	// Every leaf that intersects must be reported.
	for _, l := range tr.Leaves() {
		if l.Bounds.Intersects(q) && !hitIDs[l.ID] {
			t.Fatalf("leaf %s intersects but was not reported", l.ID)
		}
	}
}

func TestAreaIDsUnique(t *testing.T) {
	tr := buildRandomTree(t, 500, 41)
	seen := make(map[AreaID]bool)
	tr.Walk(func(n *Node) {
		if seen[n.ID] {
			t.Fatalf("duplicate area ID %s", n.ID)
		}
		seen[n.ID] = true
	})
	if len(seen) != tr.NodeCount() {
		t.Fatalf("walked %d nodes, NodeCount = %d", len(seen), tr.NodeCount())
	}
}

func TestNodeCountInvariant(t *testing.T) {
	// NodeCount must always be ≡ 1 (mod 4): each split adds exactly 4.
	f := func(n uint8) bool {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := New(unitBounds(), Options{MaxPoints: 2})
		for i := 0; i < int(n); i++ {
			_ = tr.Insert(geo.Point{Lat: rng.Float64(), Lon: rng.Float64()})
		}
		return tr.NodeCount()%4 == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDublinTreeUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var seeds []geo.Point
	for i := 0; i < 256; i++ {
		seeds = append(seeds, geo.Point{
			Lat: geo.Dublin.MinLat + rng.Float64()*(geo.Dublin.MaxLat-geo.Dublin.MinLat),
			Lon: geo.Dublin.MinLon + rng.Float64()*(geo.Dublin.MaxLon-geo.Dublin.MinLon),
		})
	}
	tr, err := Build(geo.Dublin, seeds, Options{MaxPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Locate(geo.DublinCenter)
	if n == nil {
		t.Fatal("city centre not located")
	}
}
