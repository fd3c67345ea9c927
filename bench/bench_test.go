package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// fakeClock is a clock whose sleeps overshoot by a fixed amount, as a real
// timer does, and which can be stalled from outside.
type fakeClock struct {
	now       int64
	overshoot int64
	sleeps    int
}

func (c *fakeClock) pacer(rate float64) *pacer {
	return &pacer{
		rate: rate,
		now:  func() int64 { return c.now },
		sleep: func(d time.Duration) {
			c.sleeps++
			c.now += int64(d) + c.overshoot
		},
	}
}

func TestPacerScheduleAndLateness(t *testing.T) {
	clk := &fakeClock{now: 5_000_000, overshoot: 30_000}
	p := clk.pacer(10000) // one trace per 100 µs
	p.start()
	for i := 0; i < 50; i++ {
		due, sent := p.wait(i)
		if want := int64(5_000_000 + i*100_000); due != want {
			t.Fatalf("trace %d due at %d, want %d", i, due, want)
		}
		if sent < due {
			t.Fatalf("trace %d sent at %d, before it was due at %d", i, sent, due)
		}
		if late := sent - due; i > 0 && late != clk.overshoot {
			t.Fatalf("trace %d is %d ns late, want the timer's overshoot %d", i, late, clk.overshoot)
		}
	}

	// A 1 ms stall: the ten traces that fell due meanwhile go out back to back
	// without a sleep, none is skipped, and each is timed from its own due
	// time, so the stall shows as lateness that shrinks by one period a trace.
	clk.now += 1_000_000
	before := clk.sleeps
	for i := 50; i < 60; i++ {
		due, sent := p.wait(i)
		if want := int64(5_000_000 + i*100_000); due != want {
			t.Fatalf("after the stall trace %d is due at %d, want %d", i, due, want)
		}
		if sent != clk.now || sent-due <= 0 {
			t.Fatalf("after the stall trace %d: sent %d due %d", i, sent, due)
		}
	}
	if clk.sleeps != before {
		t.Fatalf("the pacer slept %d times while behind schedule", clk.sleeps-before)
	}
	if _, sent := p.wait(61); clk.sleeps == before || sent < p.due(61) {
		t.Fatal("once caught up the pacer must sleep until the next trace is due")
	}
}

func TestPacerClosedLoopStampsEveryChunk(t *testing.T) {
	clk := &fakeClock{}
	p := clk.pacer(0)
	p.start()
	var stamps []int64
	for i := 0; i < 3*stampEvery; i++ {
		clk.now += 10
		due, sent := p.wait(i)
		if due != sent {
			t.Fatalf("closed loop: trace %d due %d, sent %d", i, due, sent)
		}
		if len(stamps) == 0 || stamps[len(stamps)-1] != sent {
			stamps = append(stamps, sent)
		}
	}
	if len(stamps) != 3 || clk.sleeps != 0 {
		t.Fatalf("closed loop read the clock %d times for %d traces and slept %d times", len(stamps), 3*stampEvery, clk.sleeps)
	}
}

func TestEmitLogLateness(t *testing.T) {
	l := newEmitLog(3)
	l.record(0, 100, 100)
	l.record(1, 200, 250)
	l.record(2, 300, 1300)
	if l.first != 100 || l.late[1] != 50 || l.late[2] != 1000 || l.due[2] != 300 {
		t.Fatalf("emit log: first %d due %v late %v", l.first, l.due, l.late)
	}
	recs := []*recorder{{samples: []sample{{trace: 2, at: 2300}}}, {samples: []sample{{trace: 1, at: 1200}, {trace: 0, at: 90}}}}
	at, ms := latencies(recs, l.due, 100)
	if len(at) != 2 || at[0] != 1200 || at[1] != 2300 {
		t.Fatalf("latencies: emission order %v, want the warm-up sample dropped and the rest sorted", at)
	}
	if ms[0] != 1e-3 || ms[1] != 2e-3 {
		t.Fatalf("latencies %v ms, want them timed from the due time: [0.001 0.002]", ms)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if p, ok := percentile(v, 0.99); p != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v ok=%v, want 990 with ten samples beyond", p, ok)
	}
	if _, ok := percentile(v[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has nine beyond it and must not count")
	}
	if p, ok := percentile(v[:21], 0.5); p != 11 || !ok {
		t.Fatalf("median of 1..21 = %v ok=%v, want 11 with ten beyond", p, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("no samples, no percentile")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "chunk", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "a", Start: 10, End: 40},
		{ID: 4, Parent: 2, Name: "b", Start: 50, End: 95}, // runs past its parent: clipped
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 80 - 30 - 40, 3: 30, 4: 45}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracedPassSumsLayersAndGlue(t *testing.T) {
	calls := 0
	steps := []layerStep{
		{name: "layer.a", run: func(lo, hi int) (int, error) { calls += hi - lo; return hi - lo, nil }},
		{run: func(lo, hi int) (int, error) { return 0, nil }},
		{name: "layer.b", run: func(lo, hi int) (int, error) { return 2 * (hi - lo), nil }},
	}
	tc := &tracer{run: "test"}
	res, err := tracedPass(tc, steps, 2*chunkTraces+5)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2*chunkTraces+5 || res.costs["layer.a"].calls != calls || res.costs["layer.b"].calls != 2*calls {
		t.Fatalf("calls: a %d b %d, walked %d", res.costs["layer.a"].calls, res.costs["layer.b"].calls, calls)
	}
	if len(tc.spans) != 1+3*3 {
		t.Fatalf("%d spans, want a root, three chunks and two layers in each", len(tc.spans))
	}
	if got := res.costs["layer.a"].nanos + res.costs["layer.b"].nanos + res.glue; got > res.wall {
		t.Fatalf("layers plus glue take %d ns of a %d ns pass", got, res.wall)
	}
}

// TestSmokeEveryWorkload runs every workload on a small feed and checks what
// does not depend on how loaded the machine is: the accounting identities,
// that every detection names its trace, the count against the reference
// (loosely), and that a run prints exactly the metrics BENCHMARK.json lists.
// The timing gates need the full-length run and stay with the benchmark.
func TestSmokeEveryWorkload(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var spec struct {
		Workloads []listed
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}

	sizes := map[string]int{"city_sat": 5000, "city_sat_tel": 5000, "dist2_sat": 5000, "city_paced_lo": 1000, "city_paced_hi": 3000}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, wl.name)
		}
		var log bytes.Buffer
		cfg := runConfig{wl: wl, seed: 7, feed: 5000, n: sizes[wl.name], trace: wl.name == "city_sat", outDir: t.TempDir(), log: &log}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v\n%s", wl.name, err, log.String())
		}
		if res.untimedFailed != 0 {
			t.Errorf("%s: %d operations failed\n%s", wl.name, res.untimedFailed, log.String())
		}
		// On a feed this short the windows are still filling and a reordered
		// trace moves more detections than the benchmark's 1 % allows for.
		if math.Abs(res.refOffset) > 0.04 {
			t.Errorf("%s: detections are %+.1f%% off the reference\n%s", wl.name, 100*res.refOffset, log.String())
		}
		if res.Attempted <= cfg.n {
			t.Errorf("%s: attempted %d, want the %d traces plus the reference detections", wl.name, res.Attempted, cfg.n)
		}
		want := spec.EndToEnd
		if cfg.trace {
			want = spec.PerLayer
		}
		if len(want) != len(res.Metrics) {
			t.Errorf("%s trace=%v: BENCHMARK.json lists %d metrics, the run prints %d", wl.name, cfg.trace, len(want), len(res.Metrics))
		}
		for _, l := range want {
			m, ok := res.Metrics[l.Name]
			if !ok || m.Unit != l.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: BENCHMARK.json lists %s in %s, the run printed %+v (present: %v)", wl.name, l.Name, l.Unit, m, ok)
			}
		}
		if cfg.trace {
			if _, err := os.Stat(cfg.outDir + "/trace_" + wl.name + ".json"); err != nil {
				t.Errorf("%s: the traced pass wrote no spans: %v", wl.name, err)
			}
			if res.Metrics["storm.wire_cpu_us_per_trace"].Value <= 0 {
				t.Errorf("%s: the two-worker shape run cost no more than the one-worker run", wl.name)
			}
		}
	}
}
