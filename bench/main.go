// Command bench is the repository's end-to-end benchmark: it builds the
// Figure-8 pipeline trafficd builds, drives it with a seeded feed in five
// workloads, checks the outputs against a single-threaded reference, and
// prints the metrics BENCHMARK.json names. See README.md.
//
//	go run ./bench --workload city_sat --seed 1 --seconds 10 --trace 0
//	go run ./bench --workload layers --seed 1
//	go run ./bench -aa 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// workload is one way of driving the pipeline.
type workload struct {
	name string
	// perSecond × the --seconds argument is the number of traces offered. For
	// an open loop it is also the rate they are offered at; for a closed loop
	// it is only a size, chosen so that the run lasts about --seconds on the
	// machine the benchmark was written on.
	perSecond float64
	paced     bool
	workers   int
	telemetry bool
}

var workloads = []workload{
	{name: "city_sat", perSecond: feedPerSecond, workers: 1},
	{name: "city_sat_tel", perSecond: feedPerSecond, workers: 1, telemetry: true},
	{name: "dist2_sat", perSecond: 28000, workers: 2},
	{name: "city_paced_lo", perSecond: 5000, paced: true, workers: 1},
	{name: "city_paced_hi", perSecond: 15000, paced: true, workers: 1},
}

// layersOnly is the traced pass on its own: no pipeline run, per-layer
// metrics only. It is not in BENCHMARK.json.
var layersOnly = workload{name: "layers", perSecond: feedPerSecond, workers: 1}

// feedPerSecond × the --seconds argument is the length of the feed every
// workload sets up, whatever prefix of it the workload then offers: one feed,
// one quadtree and one threshold bootstrap per seed, and a set-up that costs
// every workload the same.
const feedPerSecond = 36000

const (
	setupReps      = 3   // full set-ups per run at least; setup_s is their median
	setupMinS      = 1.5 // a short set-up is repeated until this many seconds are spent
	setupMaxReps   = 20
	warmupFrac     = 0.05   // share of the run whose detections are dropped
	referenceMax   = 100000 // the reference pass covers this many traces of the feed at most
	detectCountTol = 0.01   // detections may differ from the reference count by this share
	detectLimitMs  = 250    // limit on the p99 of a paced run, and on its generator's lateness
	backlogLimit   = 10     // paced.backlog_ratio above this means the rate is not sustained
	coverageLo     = 0.3    // layers.coverage must lie in (coverageLo, coverageHi] on city_sat
	coverageHi     = 1.1
	shapePayloadN  = 4096 // distinct payloads the no-op shape runs cycle through
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line of a run's standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	// untimedFailed leaves out the checks that depend on how fast the run went
	// and how its executors interleaved; the tests assert it, and refOffset —
	// detections against the reference, as a share — on runs too short for the
	// benchmark's own gates.
	untimedFailed int
	refOffset     float64
}

// runConfig is one run: the first n traces of a feed of feed traces from seed,
// through workload wl.
type runConfig struct {
	wl      workload
	seed    int64
	feed, n int
	trace   bool      // also print the per-layer metrics and write the spans
	outDir  string    // where the spans go
	log     io.Writer // progress and the reasons for failed checks
}

func main() {
	name := flag.String("workload", "", "a workload of BENCHMARK.json, or layers for the traced pass alone")
	seed := flag.Int64("seed", 1, "seed of the feed generator; nothing else depends on it")
	seconds := flag.Int("seconds", 10, "length of the timed run")
	trace := flag.Int("trace", 0, "1: trace the layered pass, run the no-op shapes, print the per-layer metrics")
	aa := flag.Int("aa", 0, "run this many sets of every workload and compare them (A/A)")
	runs := flag.Int("runs", 10, "with -aa: runs per workload in a set, each with another seed")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *aa > 0 {
		if err := runAA(*aa, *runs, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or bad -seconds; see bench/README.md\n", *name)
		os.Exit(2)
	}
	printEnv(wl, *seed, *seconds)
	res, err := runWorkload(runConfig{
		wl: wl, seed: *seed, feed: feedPerSecond * *seconds, n: traceCount(wl, *seconds),
		trace: *trace == 1, outDir: "bench/out", log: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range append([]workload{layersOnly}, workloads...) {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func traceCount(wl workload, seconds int) int { return int(wl.perSecond * float64(seconds)) }

// printEnv records what a reader needs to compare two runs.
func printEnv(wl workload, seed int64, seconds int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := map[string]any{
		"workload": wl.name, "seed": seed, "seconds": seconds,
		"traces": traceCount(wl, seconds), "paced_rate": 0.0,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc": os.Getenv("GOGC"), "go": runtime.Version(), "commit": commit,
	}
	if wl.paced {
		env["paced_rate"] = wl.perSecond
	}
	out, _ := json.Marshal(map[string]any{"env": env}) // strings and numbers always marshal
	fmt.Println(string(out))
}

// checks counts failed operations and says why on the log.
type checks struct {
	failed, timed int     // timed is the part of failed that came from timing gates
	refOffset     float64 // (detections − reference) ÷ reference on the reference's traces
	log           io.Writer
}

func (c *checks) add(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	c.failed += n
	fmt.Fprintf(c.log, "check failed (%d): %s\n", n, fmt.Sprintf(format, args...))
}

// addTimed is add for a gate on how fast or how steadily the run went.
func (c *checks) addTimed(n int, format string, args ...any) {
	if n > 0 {
		c.timed += n
		c.add(n, format, args...)
	}
}

func absDiff(a, b uint64) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}

// runWorkload sets up, makes the timed run, computes the reference, and with
// trace also measures the layers one by one.
func runWorkload(cfg runConfig) (*result, error) {
	wl, n := cfg.wl, cfg.n
	refN := min(n, referenceMax)
	perLayer := cfg.trace || wl.name == layersOnly.name
	m := metrics{}
	ck := &checks{log: cfg.log}

	w, p, setups, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	var tr *timedRun
	if wl.name != layersOnly.name {
		if tr, err = timeRun(p, n); err != nil {
			return nil, err
		}
		m.put("setup_s", median(setups)+tr.setupTail, "s")
		m.put("throughput_tps", float64(n)/tr.wall, "traces/s")
		m.put("cpu_us_per_trace", tr.cpuUs, "us")
		m.put("detect_p50_ms", tr.p50, "ms")
		fmt.Fprintf(cfg.log, "set-up: %d builds, median %.3f s, then %.3f s to the first emit\n", len(setups), median(setups), tr.setupTail)
		fmt.Fprintf(cfg.log, "timed run: %.2f s, %d detections timed after warm-up, p99 %.3f ms\n", tr.wall, len(tr.lat), tr.p99)
	}

	// The layered pass: reference for the detection count, and cost per layer.
	lp, err := newLayerPass(w)
	if err != nil {
		return nil, err
	}
	tc := &tracer{run: fmt.Sprintf("%s-seed%d", wl.name, cfg.seed)}
	pass, err := tracedPass(tc, lp.layers(), refN)
	if err != nil {
		return nil, err
	}

	if tr != nil {
		tot := p.totals()
		checkRun(ck, cfg, tr, tot, p.storedDetections(), refN, lp.detections)
		if perLayer {
			putRunMetrics(m, tr, tot, w.tasks)
		}
	}
	if perLayer {
		if err := putLayerMetrics(m, ck, cfg, lp, pass, refN, tr); err != nil {
			return nil, err
		}
		if err := tc.write(filepath.Join(cfg.outDir, "trace_"+wl.name+".json")); err != nil {
			return nil, err
		}
	}

	res := &result{
		Correct: ck.failed == 0, Attempted: n + lp.detections, Failed: ck.failed,
		Metrics: metrics{}, untimedFailed: ck.failed - ck.timed, refOffset: ck.refOffset,
	}
	for name, v := range m {
		if endToEnd[name] != perLayer {
			res.Metrics[name] = v
		}
	}
	return res, nil
}

// setUp builds the world and the pipeline several times over, timing each,
// and returns the last.
func setUp(cfg runConfig) (w *world, p *pipeline, seconds []float64, err error) {
	rate := 0.0
	if cfg.wl.paced {
		rate = cfg.wl.perSecond
	}
	for len(seconds) < setupReps {
		if p != nil {
			p.close()
		}
		w, p = nil, nil // the previous set-up is garbage, collected before the next is timed
		runtime.GC()
		start := nanos()
		if w, err = buildWorld(cfg.seed, cfg.feed, cfg.wl.telemetry); err != nil {
			return nil, nil, nil, err
		}
		if p, err = newPipeline(w, cfg.n, rate, cfg.wl.workers); err != nil {
			return nil, nil, nil, err
		}
		seconds = append(seconds, float64(nanos()-start)/1e9)
	}
	return w, p, seconds, nil
}

// checkRun counts the operations of the timed run that failed: traces and
// detections unaccounted for, detections that differ from the reference, and
// on a paced run detections that came too late.
func checkRun(ck *checks, cfg runConfig, tr *timedRun, tot map[string]opTotals, stored, refN, reference int) {
	for _, c := range components {
		ck.add(int(tot[c].failed), "%s reported errors or drops", c)
	}
	pre, split, eng, store := tot["PreProcess"], tot["Splitter"], tot["EsperBolt"], tot["EventsStorer"]
	ck.add(absDiff(pre.executed, uint64(cfg.n)), "PreProcess executed %d of %d traces", pre.executed, cfg.n)
	ck.add(absDiff(eng.executed, split.emitted), "EsperBolt executed %d, Splitter emitted %d", eng.executed, split.emitted)
	ck.add(absDiff(store.executed, eng.emitted), "EventsStorer executed %d, EsperBolt emitted %d", store.executed, eng.emitted)
	ck.add(absDiff(uint64(stored), eng.emitted), "%d detections stored, EsperBolt emitted %d", stored, eng.emitted)
	ck.add(absDiff(uint64(tr.resolved+tr.unresolved), eng.emitted), "%d detections heard, EsperBolt emitted %d", tr.resolved+tr.unresolved, eng.emitted)
	ck.add(tr.unresolved, "detections that name no trace of the feed, or the wrong location")

	// How executors interleave moves a few detections, more on a short feed
	// whose windows are still filling; hence a tolerance, and a timed check.
	got := tr.triggeredBelow(refN)
	ck.refOffset = float64(got-reference) / float64(reference)
	excess := (math.Abs(ck.refOffset) - detectCountTol) * float64(reference)
	ck.addTimed(int(math.Ceil(excess)), "%d detections on the first %d traces, reference %d", got, refN, reference)
	fmt.Fprintf(cfg.log, "detections: %d stored; on the first %d traces %d, reference %d (%+.3f%%)\n",
		stored, refN, got, reference, 100*ck.refOffset)

	if !tr.p99ok {
		ck.addTimed(1, "%d detections are too few for a p99", len(tr.lat))
	}
	if !cfg.wl.paced {
		return
	}
	// The limit is on the p99: one stall of the host does not fail a run, a
	// tail beyond the limit fails every detection in it.
	if tr.p99 > detectLimitMs {
		tooLate := 0
		for _, l := range tr.lat {
			if l > detectLimitMs {
				tooLate++
			}
		}
		ck.addTimed(tooLate, "detections later than %d ms, p99 %.1f ms", detectLimitMs, tr.p99)
	}
	if tr.lateP99 > detectLimitMs {
		ck.addTimed(1, "generator ran late: p99 %.3f ms > %d ms", tr.lateP99, detectLimitMs)
	}
	if tr.backlog > backlogLimit || tr.backlog == 0 {
		ck.addTimed(max(1, len(tr.lat)), "backlog ratio %.2f: the rate is not sustained", tr.backlog)
	}
}

// putRunMetrics adds the per-layer metrics read off the timed run: the tail,
// the generator, the process, and every operator's monitor totals.
func putRunMetrics(m metrics, tr *timedRun, tot map[string]opTotals, tasks map[string]int) {
	m.put("detect.p99_ms", tr.p99, "ms")
	m.put("detect.samples", float64(len(tr.lat)), "count")
	m.put("gen.late_p50_ms", tr.lateP50, "ms")
	m.put("gen.late_p99_ms", tr.lateP99, "ms")
	m.put("paced.backlog_ratio", tr.backlog, "ratio")
	m.put("proc.allocs_per_trace", tr.allocs, "count")
	m.put("proc.alloc_bytes_per_trace", tr.allocBytes, "B")
	m.put("proc.gc_pause_ms", tr.gcPauseMs, "ms")
	m.put("proc.peak_rss_mb", tr.peakRSS, "MB")
	for _, c := range components {
		o := tot[c]
		execUs := 0.0
		if o.executed > 0 {
			execUs = o.execNanos / float64(o.executed) / 1e3
		}
		m.put("op."+c+".executed", float64(o.executed), "count")
		m.put("op."+c+".emitted", float64(o.emitted), "count")
		m.put("op."+c+".failed", float64(o.failed), "count")
		m.put("op."+c+".exec_us", execUs, "us")
		m.put("op."+c+".busy_frac", o.execNanos/1e9/float64(tasks[c])/tr.wall, "ratio")
	}
}

// putLayerMetrics adds what the layered pass measured, runs the no-op shapes
// for the cost of the runtime alone, and draws up the budget against the
// timed run's CPU per trace (tr is nil for the layers-only run).
func putLayerMetrics(m metrics, ck *checks, cfg runConfig, lp *layerPass, pass *passResult, refN int, tr *timedRun) error {
	fanout := float64(lp.deliveries) / float64(refN)
	detPerTrace := float64(lp.detections) / float64(refN)
	for _, l := range layerNames {
		m.put(l+"_ns", pass.costs[l].perCall(), "ns")
	}
	m.put("core.route_fanout", fanout, "count")
	m.put("cep.detections_per_trace", detPerTrace, "count")
	m.put("layers.single_thread_tps", float64(refN)/(float64(pass.wall)/1e9), "traces/s")
	m.put("layers.pass_glue_us_per_trace", float64(pass.glue)/1e3/float64(refN), "us")
	m.put("trace.span_overhead_ns", spanOverheadNanos(), "ns")

	payloads, err := lp.shapePayloads(min(refN, shapePayloadN))
	if err != nil {
		return err
	}
	var shapeUs [3]float64 // one worker, two workers, one worker with telemetry
	for i, shape := range []struct {
		workers int
		tel     bool
	}{{1, false}, {2, false}, {1, true}} {
		runtime.GC()
		cpu, err := shapeRun(payloads, refN, detPerTrace/fanout, shape.workers, shape.tel)
		if err != nil {
			return err
		}
		shapeUs[i] = float64(cpu) / 1e3 / float64(refN)
	}
	m.put("storm.transport_cpu_us_per_trace", shapeUs[0], "us")
	m.put("storm.wire_cpu_us_per_trace", shapeUs[1]-shapeUs[0], "us")
	m.put("telemetry.tax_cpu_us_per_trace", shapeUs[2]-shapeUs[0], "us")

	sum := shapeUs[0] + (fanout*pass.costs["cep.send"].perCall()+detPerTrace*pass.costs["sqlstore.insert"].perCall())/1e3
	for _, l := range layerNames[:5] { // the layers called once per trace
		sum += pass.costs[l].perCall() / 1e3
	}
	m.put("layers.sum_us_per_trace", sum, "us")
	if tr == nil {
		return nil
	}
	coverage := sum / tr.cpuUs
	m.put("core.glue_us_per_trace", tr.cpuUs-sum, "us")
	m.put("layers.coverage", coverage, "ratio")
	if cfg.wl.name == "city_sat" && (coverage <= coverageLo || coverage > coverageHi) {
		ck.addTimed(1, "layers.coverage %.3f outside (%.1f, %.1f]", coverage, coverageLo, coverageHi)
	}
	return nil
}

// layerNames lists the timed layers in pipeline order; the first five are
// called once per trace, cep.send once per delivery, sqlstore.insert once per
// detection.
var layerNames = []string{
	"busdata.fill", "busdata.preprocess", "quadtree.path", "core.history", "core.route",
	"cep.send", "sqlstore.insert",
}

var endToEnd = map[string]bool{
	"setup_s": true, "throughput_tps": true, "cpu_us_per_trace": true, "detect_p50_ms": true,
}

// timedRun is what one run of the pipeline measured.
type timedRun struct {
	setupTail float64 // s from the start of Run to the first emit: rule install, TCP mesh
	wall      float64 // s from the first emit to Run returning drained
	cpuUs     float64 // process CPU per trace over wall

	lat        []float64 // detection latencies after warm-up, ms, in emission order
	p50, p99   float64
	p99ok      bool
	triggers   []int32 // trace index of every resolved detection
	resolved   int
	unresolved int

	lateP50, lateP99 float64
	backlog          float64

	allocs, allocBytes, gcPauseMs, peakRSS float64
}

func (t *timedRun) triggeredBelow(n int) int {
	c := 0
	for _, i := range t.triggers {
		if int(i) < n {
			c++
		}
	}
	return c
}

func timeRun(p *pipeline, n int) (*timedRun, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := nanos()
	if err := p.run(); err != nil {
		return nil, err
	}
	end, cpuEnd := nanos(), cpuNanos()
	runtime.ReadMemStats(&ms1)
	lg := p.log
	t := &timedRun{
		setupTail:  float64(lg.first-start) / 1e9,
		wall:       float64(end-lg.first) / 1e9,
		cpuUs:      float64(cpuEnd-lg.firstCPU) / 1e3 / float64(n),
		allocs:     float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		allocBytes: float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
		gcPauseMs:  float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		peakRSS:    peakRSSMB(),
	}
	for _, r := range p.recs {
		t.unresolved += r.unresolved
		t.resolved += len(r.samples)
		for _, s := range r.samples {
			t.triggers = append(t.triggers, s.trace)
		}
	}

	cutoff := lg.first + int64(warmupFrac*float64(end-lg.first))
	at, lat := latencies(p.recs, lg.due, cutoff)
	t.lat = lat
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	t.p99, t.p99ok = percentile(sorted, 0.99)
	// The median is taken per tenth of the run and then over the tenths: a
	// stretch in which the host runs slow moves some tenths, not the figure.
	tenths := sliceQuantiles(at, lat, lg.first, end, 10, 0.50)
	if t.p50 = median(tenths); len(tenths) == 0 {
		t.p50, _ = percentile(sorted, 0.50) // a run too short to cut up
	}
	if len(tenths) == 10 && tenths[1] > 0 {
		t.backlog = tenths[9] / tenths[1]
	}

	late := make([]float64, n)
	for i, l := range lg.late {
		late[i] = float64(l) / 1e6
	}
	sort.Float64s(late)
	t.lateP50, _ = percentile(late, 0.50)
	t.lateP99, _ = percentile(late, 0.99)
	return t, nil
}
