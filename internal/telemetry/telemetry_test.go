package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	c.Store(42)
	if c.Load() != 42 {
		t.Fatalf("counter after Store = %d, want 42", c.Load())
	}
	if r.Counter("c") != c {
		t.Fatal("Counter must be get-or-create: second call returned a new instance")
	}

	g := r.Gauge("g")
	g.Set(3.25)
	if g.Load() != 3.25 {
		t.Fatalf("gauge = %v, want 3.25", g.Load())
	}
	if r.Gauge("g") != g {
		t.Fatal("Gauge must be get-or-create")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram must be get-or-create")
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing counter name as a gauge must panic")
		}
	}()
	r.Gauge("x")
}

func TestBucketBounds(t *testing.T) {
	if BucketBound(0) != 1000 {
		t.Fatalf("bucket 0 bound = %d, want 1000", BucketBound(0))
	}
	if BucketBound(1) != 2000 || BucketBound(10) != 1000<<10 {
		t.Fatal("bounds must double per bucket")
	}
	if BucketBound(numBuckets-1) != -1 {
		t.Fatal("last bucket must be the unbounded overflow")
	}
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {1000, 0}, {1001, 1}, {2000, 1}, {2001, 2},
		{1 << 40, numBuckets - 1}, // beyond the covered span → overflow
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestHistogramKnownSequence drives a known latency sequence through the
// histogram and checks the exact bucket counts and summary stats.
func TestHistogramKnownSequence(t *testing.T) {
	h := newHistogram()
	// 3 values in bucket 0 (≤1µs), 2 in bucket 1 (≤2µs), 1 in bucket 3 (≤8µs).
	for _, v := range []int64{100, 500, 1000, 1500, 2000, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Min != 100 || s.Max != 5000 {
		t.Fatalf("min/max = %d/%d, want 100/5000", s.Min, s.Max)
	}
	if s.Sum != 10100 {
		t.Fatalf("sum = %d, want 10100", s.Sum)
	}
	if want := 10100.0 / 6; s.Mean != want {
		t.Fatalf("mean = %v, want %v", s.Mean, want)
	}
	wantBuckets := []Bucket{{Bound: 1000, Count: 3}, {Bound: 2000, Count: 2}, {Bound: 8000, Count: 1}}
	if len(s.Buckets) != len(wantBuckets) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, wantBuckets)
	}
	for i, b := range wantBuckets {
		if s.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
}

// TestHistogramQuantiles checks the deterministic quantile cases: a constant
// series must report that exact value at every quantile (clamping to the
// observed min/max), and a skewed series must place p50 and p99 in the right
// buckets.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.ObserveDuration(5 * time.Microsecond)
	}
	s := h.Snapshot()
	if s.P50 != 5000 || s.P95 != 5000 || s.P99 != 5000 {
		t.Fatalf("constant series quantiles = %d/%d/%d, want 5000 each", s.P50, s.P95, s.P99)
	}

	h = newHistogram()
	// 90 fast observations at 1 µs, 10 slow at ~1.05 ms (overflowing into
	// higher buckets): the median stays pinned to the fast value, p99 must
	// land among the slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 << 20)
	}
	s = h.Snapshot()
	if s.P50 != 1000 {
		t.Fatalf("p50 = %d, want 1000 (clamped to the fast bucket's min)", s.P50)
	}
	if s.P99 <= BucketBound(9) || s.P99 > 1<<20 {
		t.Fatalf("p99 = %d, want within the slow bucket (%d, %d]", s.P99, BucketBound(9), 1<<20)
	}
	if got := h.Quantile(1.0); got != 1<<20 {
		t.Fatalf("q=1.0 → %d, want the max %d", got, 1<<20)
	}
}

func TestHistogramNegativeClampedAndEmpty(t *testing.T) {
	h := newHistogram()
	if s := h.Snapshot(); s.Count != 0 || s.Min != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	h.Observe(-50)
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 0 || s.Sum != 0 || s.Count != 1 {
		t.Fatalf("negative observation must clamp to 0: %+v", s)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram()
	huge := int64(1) << 60 // beyond every bounded bucket
	h.Observe(huge)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].Bound != -1 {
		t.Fatalf("buckets = %+v, want single overflow bucket", s.Buckets)
	}
	if s.P50 != huge || s.P99 != huge {
		t.Fatalf("overflow quantiles must report the observed max, got %d/%d", s.P50, s.P99)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — mixed
// get-or-create, counter increments, histogram observations and snapshots —
// and checks the totals. Run under -race this is the registry's thread-safety
// proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("per.%d", w)).Inc()
				r.Histogram("lat").Observe(int64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != workers*perWorker {
		t.Fatalf("shared = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter(fmt.Sprintf("per.%d", w)).Load(); got != perWorker {
			t.Fatalf("per.%d = %d, want %d", w, got, perWorker)
		}
	}
}

// fakeSource mirrors an externally tracked value into the registry.
type fakeSource struct {
	name string
	n    uint64
}

func (s *fakeSource) Describe() string          { return s.name }
func (s *fakeSource) Collect(r *Registry)       { r.Counter(s.name + ".n").Store(s.n) }
func (s *fakeSource) bump(d uint64) *fakeSource { s.n += d; return s }

func TestSourcesAndGather(t *testing.T) {
	r := NewRegistry()
	a := (&fakeSource{name: "a"}).bump(3)
	b := (&fakeSource{name: "b"}).bump(7)
	r.Register(a)
	r.Register(b)
	r.Register(a) // dedup: same source twice collects once

	descs := r.Sources()
	if len(descs) != 2 || descs[0] != "a" || descs[1] != "b" {
		t.Fatalf("sources = %v", descs)
	}

	snap := r.Gather()
	if m, ok := snap.Get("a.n"); !ok || m.Value != 3 {
		t.Fatalf("a.n = %+v, %v", m, ok)
	}
	if m, ok := snap.Get("b.n"); !ok || m.Value != 7 {
		t.Fatalf("b.n = %+v, %v", m, ok)
	}

	// Gather reflects source state at gather time, not registration time.
	a.bump(5)
	if m, _ := r.Gather().Get("a.n"); m.Value != 8 {
		t.Fatalf("a.n after bump = %v, want 8", m.Value)
	}

	// Snapshots are sorted by name.
	snap = r.Snapshot()
	for i := 1; i < len(snap.Metrics); i++ {
		if snap.Metrics[i-1].Name >= snap.Metrics[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap.Metrics[i-1].Name, snap.Metrics[i].Name)
		}
	}
	if _, ok := snap.Get("nosuch"); ok {
		t.Fatal("Get must miss on unknown names")
	}
}

func TestTupleTrace(t *testing.T) {
	var zero TupleTrace
	if zero.Active() {
		t.Fatal("zero trace must be inactive")
	}
	tr := StartTrace(1000)
	if !tr.Active() || tr.StartNanos != 1000 || tr.EmitNanos != 1000 {
		t.Fatalf("fresh trace = %+v, want both stamps at the start", tr)
	}
	// The next hop carries the origin stamp and renews the emit stamp.
	next := tr.Next(2000)
	if next.StartNanos != 1000 || next.EmitNanos != 2000 {
		t.Fatalf("next = %+v", next)
	}
}

// TestExporterJSONLines checks that every emission is one valid JSON object
// per line carrying the metrics, and that counters gain a per-second rate
// against the previous emission.
func TestExporterJSONLines(t *testing.T) {
	r := NewRegistry()
	r.Counter("tuples").Add(100)
	r.Histogram("lat_ns").Observe(5000)

	var buf bytes.Buffer
	e := NewExporter(r, &buf, 0) // interval 0: manual Emit only
	e.Emit()
	r.Counter("tuples").Add(50)
	time.Sleep(2 * time.Millisecond) // a real rate window
	e.Emit()

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var snaps []Snapshot
	for i, line := range lines {
		var s Snapshot
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		snaps = append(snaps, s)
	}
	if m, ok := snaps[1].Get("tuples"); !ok || m.Value != 150 {
		t.Fatalf("tuples = %+v", m)
	} else if m.Rate <= 0 {
		t.Fatalf("rate = %v, want > 0 (50 increments over the window)", m.Rate)
	}
	if m, ok := snaps[0].Get("lat_ns"); !ok || m.Histogram == nil || m.Histogram.P50 != 5000 {
		t.Fatalf("lat_ns = %+v", m)
	}
}

func TestExporterStartStop(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	e := NewExporter(r, w, time.Millisecond)
	e.Start()
	time.Sleep(10 * time.Millisecond)
	e.Stop()
	e.Stop() // idempotent

	mu.Lock()
	defer mu.Unlock()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 2 { // several ticks plus the final Stop emission
		t.Fatalf("lines = %d, want at least 2", len(lines))
	}
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("line %d invalid: %q", i, line)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
