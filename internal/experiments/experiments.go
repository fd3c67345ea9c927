// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each Figure/Table function produces the same rows or
// series the paper plots; cmd/experiments prints them and the repository
// benchmarks wrap them, so one definition drives both. EXPERIMENTS.md
// records the paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"io"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cluster"
	"trafficcep/internal/core"
	"trafficcep/internal/regress"
)

// Series is one plotted line: a name plus sweep points.
type Series struct {
	Name   string
	Points []cluster.SweepPoint
}

// DatasetResult compares the synthetic feed against Table 2.
type DatasetResult struct {
	Props busdata.DatasetProperties
	// PaperBuses etc. are the Table 2 reference values.
	PaperBuses        int
	PaperLines        int
	PaperTuplesPerMin float64
}

// Dataset generates a slice of the synthetic feed at the full Table 2
// calibration and summarizes it (Tables 1 & 2).
func Dataset(duration time.Duration) (DatasetResult, error) {
	gen, err := busdata.NewGenerator(busdata.DefaultConfig())
	if err != nil {
		return DatasetResult{}, err
	}
	traces := gen.Generate(duration)
	return DatasetResult{
		Props:             busdata.Properties(traces),
		PaperBuses:        911,
		PaperLines:        67,
		PaperTuplesPerMin: 3,
	}, nil
}

// Fig9Result is the regression-model comparison of §5.1 / Figure 9.
// Order2 is nil when the second-order fit could not be made, Order2Err
// says why, and Order2MAE and Order2MAPE are then unset: there is nothing
// to compare order 1 against.
type Fig9Result struct {
	Order1      *regress.Poly
	Order2      *regress.Poly
	Order2Err   error
	Order1MAE   float64 // held-out mean absolute error, ms
	Order2MAE   float64
	Order1MAPE  float64 // held-out MAPE, %
	Order2MAPE  float64
	SampleCount int
}

// Figure9 gathers real Function 2 measurements (engines running rule pairs
// on the live CEP engine, each the fastest of fig9Repeats sweeps), fits
// first- and second-order polynomials, and compares their held-out error — the paper found the first-order fit
// better by ~60% (§5.1).
func Figure9(pairSamples, eventsPerSample int) (Fig9Result, error) {
	// An order-2 fit in two variables has six coefficients; keep a
	// comfortable margin of samples above that so the held-out split
	// stays well-determined.
	if pairSamples < 12 {
		pairSamples = 12
	}
	if eventsPerSample <= 0 {
		eventsPerSample = 400
	}
	windows := []int{1, 10, 100, 400, 1000}
	const locations = 24

	// Each sample is the fastest of fig9Repeats sweeps: a measurement
	// spans well under a millisecond, so a preemption or GC pause inflates
	// it several times over. Such noise only ever adds, and repeating the
	// whole sweep rather than one measurement in a row keeps a burst of it
	// from covering every repeat of a sample.
	xs := make([][]float64, pairSamples)
	ys := make([]float64, pairSamples)
	for rep := 0; rep < fig9Repeats; rep++ {
		for i := 0; i < pairSamples; i++ {
			l1 := windows[i%len(windows)]
			l2 := windows[(i*3+2)%len(windows)]
			t1 := 24 * (1 + i%4)
			t2 := 24 * (1 + (i*2+1)%4)
			la, err := core.MeasureRuleLatencyMs(l1, t1, locations, eventsPerSample)
			if err != nil {
				return Fig9Result{}, err
			}
			lb, err := core.MeasureRuleLatencyMs(l2, t2, locations, eventsPerSample)
			if err != nil {
				return Fig9Result{}, err
			}
			both, err := core.MeasurePairLatencyMs(l1, t1, l2, t2, locations, eventsPerSample)
			if err != nil {
				return Fig9Result{}, err
			}
			if rep == 0 {
				xs[i], ys[i] = []float64{la, lb}, both
				continue
			}
			xs[i][0], xs[i][1] = min(xs[i][0], la), min(xs[i][1], lb)
			ys[i] = min(ys[i], both)
		}
	}

	trainX, trainY, testX, testY := regress.TrainTestSplit(xs, ys, 0.3)
	if len(testX) == 0 {
		trainX, trainY, testX, testY = xs, ys, xs, ys
	}
	p1, err := regress.FitPoly(trainX, trainY, 1)
	if err != nil {
		return Fig9Result{}, err
	}
	res := Fig9Result{
		Order1:      p1,
		Order1MAE:   p1.MAE(testX, testY),
		Order1MAPE:  p1.MAPE(testX, testY),
		SampleCount: len(xs),
	}
	// Single-rule latencies that barely move with l and t make the
	// six-coefficient order-2 system singular. That is reported, not
	// scored: it says nothing about which order generalizes better.
	p2, err := regress.FitPoly(trainX, trainY, 2)
	if err != nil {
		res.Order2Err = err
		return res, nil
	}
	res.Order2 = p2
	res.Order2MAE = p2.MAE(testX, testY)
	res.Order2MAPE = p2.MAPE(testX, testY)
	return res, nil
}

// fig9Repeats is how many sweeps Figure9 keeps the fastest of.
const fig9Repeats = 9

// Fig11Result holds the allocation comparison (Figure 11).
type Fig11Result struct {
	ProposedW1, ProposedW2     Series
	RoundRobinW1, RoundRobinW2 Series
}

// Figure11 sweeps engine counts for both workloads under the proposed
// allocation and the round-robin baseline.
func Figure11(engineCounts []int) (Fig11Result, error) {
	if len(engineCounts) == 0 {
		engineCounts = rangeInts(3, 30, 1)
	}
	model := core.DefaultLatencyModel()
	spec := cluster.SyntheticSpatial(60000)
	out := Fig11Result{
		ProposedW1:   Series{Name: "proposed allocation Workload 1"},
		ProposedW2:   Series{Name: "proposed allocation Workload 2"},
		RoundRobinW1: Series{Name: "round robin allocation Workload 1"},
		RoundRobinW2: Series{Name: "round robin allocation Workload 2"},
	}
	for wi, windows := range [][]int{{1, 10, 100}, {100, 1000}} {
		s := &cluster.AllocationScenario{Spec: spec, Windows: windows, Model: model, VMs: 7}
		for _, n := range engineCounts {
			prop, _, err := s.Proposed(n)
			if err != nil {
				return Fig11Result{}, err
			}
			rr, err := s.RoundRobin(n)
			if err != nil {
				return Fig11Result{}, err
			}
			if wi == 0 {
				out.ProposedW1.Points = append(out.ProposedW1.Points, prop)
				out.RoundRobinW1.Points = append(out.RoundRobinW1.Points, rr)
			} else {
				out.ProposedW2.Points = append(out.ProposedW2.Points, prop)
				out.RoundRobinW2.Points = append(out.RoundRobinW2.Points, rr)
			}
		}
	}
	return out, nil
}

// Fig12Result holds the partitioning comparison (Figures 12 and 13: the
// same runs provide both the latency and the throughput series).
type Fig12Result struct {
	Ours, AllGrouping, AllRules Series
}

// Figure12_13 sweeps the three splitter policies.
func Figure12_13(engineCounts []int) (Fig12Result, error) {
	if len(engineCounts) == 0 {
		engineCounts = rangeInts(1, 15, 1)
	}
	s := &cluster.PartitioningScenario{
		Spec:  cluster.SyntheticSpatial(60000),
		Model: core.DefaultLatencyModel(),
		VMs:   7,
	}
	out := Fig12Result{
		Ours:        Series{Name: "our approach"},
		AllGrouping: Series{Name: "all grouping"},
		AllRules:    Series{Name: "all rules"},
	}
	for _, n := range engineCounts {
		p, err := s.Ours(n)
		if err != nil {
			return Fig12Result{}, err
		}
		out.Ours.Points = append(out.Ours.Points, p)
		p, err = s.AllGrouping(n)
		if err != nil {
			return Fig12Result{}, err
		}
		out.AllGrouping.Points = append(out.AllGrouping.Points, p)
		p, err = s.AllRules(n)
		if err != nil {
			return Fig12Result{}, err
		}
		out.AllRules.Points = append(out.AllRules.Points, p)
	}
	return out, nil
}

// WorkloadMixes are the seven Figure 14/15 series.
var WorkloadMixes = []struct {
	Name    string
	Windows []int
}{
	{"last event", []int{1}},
	{"last 10 values", []int{10}},
	{"last 100 values", []int{100}},
	{"last event and last 10 values", []int{1, 10}},
	{"last event and last 100 values", []int{1, 100}},
	{"last 10 and 100 values", []int{10, 100}},
	{"all the rules", []int{1, 10, 100}},
}

// Figure14_15 sweeps the workload mixes on 7 VMs.
func Figure14_15(engineCounts []int) ([]Series, error) {
	return workloadSweep(engineCounts, []int{7}, func(vms int, name string) string { return name })
}

// Figure16_17 sweeps the heaviest workload on 3, 5 and 7 VMs.
func Figure16_17(engineCounts []int) ([]Series, error) {
	if len(engineCounts) == 0 {
		engineCounts = rangeInts(1, 15, 1)
	}
	spec := cluster.SyntheticSpatial(60000)
	model := core.DefaultLatencyModel()
	var out []Series
	for _, vms := range []int{3, 5, 7} {
		w := &cluster.WorkloadScenario{Spec: spec, Model: model, VMs: vms, Windows: []int{1, 10, 100}}
		s := Series{Name: fmt.Sprintf("VMs %d", vms)}
		for _, n := range engineCounts {
			pt, err := w.Evaluate(n)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, pt)
		}
		out = append(out, s)
	}
	return out, nil
}

func workloadSweep(engineCounts, vmCounts []int, nameOf func(int, string) string) ([]Series, error) {
	if len(engineCounts) == 0 {
		engineCounts = rangeInts(1, 15, 1)
	}
	spec := cluster.SyntheticSpatial(60000)
	model := core.DefaultLatencyModel()
	var out []Series
	for _, vms := range vmCounts {
		for _, mix := range WorkloadMixes {
			w := &cluster.WorkloadScenario{Spec: spec, Model: model, VMs: vms, Windows: mix.Windows}
			s := Series{Name: nameOf(vms, mix.Name)}
			for _, n := range engineCounts {
				pt, err := w.Evaluate(n)
				if err != nil {
					return nil, err
				}
				s.Points = append(s.Points, pt)
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// Table6 returns the generic rule template's parameter grid.
func Table6() [][2]string {
	return [][2]string{
		{"Attribute", "Delay, Actual Delay, Speed, Delay and Congestion, All"},
		{"Location", "Bus Stops and Quadtree Areas"},
		{"Window Length", "1, 10, 100, 1000"},
	}
}

func rangeInts(from, to, step int) []int {
	var out []int
	for i := from; i <= to; i += step {
		out = append(out, i)
	}
	return out
}

// PrintSeries renders series as aligned columns (engines as rows).
func PrintSeries(w io.Writer, metric string, series ...Series) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(w, "%-8s", "engines")
	for _, s := range series {
		fmt.Fprintf(w, " | %-28s", s.Name)
	}
	fmt.Fprintln(w)
	for i := range series[0].Points {
		fmt.Fprintf(w, "%-8d", series[0].Points[i].Engines)
		for _, s := range series {
			v := 0.0
			if i < len(s.Points) {
				switch metric {
				case "throughput":
					v = s.Points[i].Throughput
				case "latency":
					v = s.Points[i].LatencyMs
				}
			}
			fmt.Fprintf(w, " | %-28.2f", v)
		}
		fmt.Fprintln(w)
	}
}
