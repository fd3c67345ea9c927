// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§5). Each experiment prints the rows/series the paper
// plots; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig11
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"trafficcep/internal/experiments"
)

var exps = []struct {
	name string
	desc string
	run  func() error
}{
	{"dataset", "Tables 1-2: synthetic dataset properties vs the paper's", runDataset},
	{"fig9", "Figure 9 / §5.1: regression order comparison (live measurement)", runFig9},
	{"fig10", "Figure 10: threshold retrieval strategies (live measurement)", runFig10},
	{"fig11", "Figure 11: rules allocation vs round-robin", runFig11},
	{"fig12", "Figures 12-13: rules partitioning policies", runFig12},
	{"fig14", "Figures 14-15: workload mixes", runFig14},
	{"fig16", "Figures 16-17: VM scalability", runFig16},
	{"table6", "Table 6: rule template parameters", runTable6},
	{"rebalance", "Skew-shift recovery: live rebalancing vs static routing (§4.2.1 dynamic loop)", runRebalance},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return
	}
	ran := false
	for _, e := range exps {
		if *exp != "all" && e.name != *exp {
			continue
		}
		ran = true
		fmt.Printf("=== %s — %s ===\n", e.name, e.desc)
		start := time.Now()
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
}

func runDataset() error {
	res, err := experiments.Dataset(30 * time.Minute)
	if err != nil {
		return err
	}
	p := res.Props
	fmt.Printf("%-22s %-12s %s\n", "property", "paper", "generated")
	fmt.Printf("%-22s %-12d %d\n", "number of buses", res.PaperBuses, p.Buses)
	fmt.Printf("%-22s %-12d %d\n", "number of lines", res.PaperLines, p.Lines)
	fmt.Printf("%-22s %-12.1f %.2f\n", "tuples/min per bus", res.PaperTuplesPerMin, p.TuplesPerMin)
	fmt.Printf("%-22s %-12s %.1f MB (for %s)\n", "size of data", "160 MB/day",
		p.ApproxSizeMB, p.LastTS.Sub(p.FirstTS))
	fmt.Printf("%-22s %-12s %d\n", "traces generated", "-", p.Traces)
	return nil
}

func runFig9() error {
	res, err := experiments.Figure9(16, 400)
	if err != nil {
		return err
	}
	fmt.Printf("samples: %d rule-pair measurements (live engine)\n", res.SampleCount)
	fmt.Printf("1st-order fit: %s\n", res.Order1)
	if res.Order2 == nil {
		fmt.Printf("2nd-order fit: not fitted (%v)\n", res.Order2Err)
	} else {
		fmt.Printf("2nd-order fit: %s\n", res.Order2)
	}
	fmt.Printf("%-12s %-14s %-14s\n", "model", "held-out MAE", "held-out MAPE")
	fmt.Printf("%-12s %-14.4f %-14.1f\n", "order 1", res.Order1MAE, res.Order1MAPE)
	switch {
	case res.Order2 == nil:
		fmt.Printf("%-12s %-14s %-14s\n", "order 2", "-", "-")
		fmt.Println("=> comparison not estimable: single-rule latencies are flat in l and t on this engine, so the second-order terms are collinear")
	case res.Order1MAE <= res.Order2MAE:
		fmt.Println("=> first-order polynomial generalizes better (paper §5.1 agrees)")
	default:
		fmt.Println("=> second-order fit won on this run (the paper reports order 1 ahead by ~60%)")
	}
	return nil
}

func runFig10() error {
	res, err := experiments.Figure10(32, 6000, 8)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s", "window")
	for _, s := range experiments.Strategies {
		fmt.Printf(" | %-18s", s)
	}
	fmt.Println()
	for _, row := range res.Rows {
		fmt.Printf("%-8d", row.Window)
		for _, s := range experiments.Strategies {
			fmt.Printf(" | %-18.4f", row.LatencyMs[s])
		}
		fmt.Println()
	}
	fmt.Printf("%-8s", "mean")
	for _, s := range experiments.Strategies {
		fmt.Printf(" | %-18.4f", res.Mean[s])
	}
	fmt.Println()
	return nil
}

func runFig11() error {
	res, err := experiments.Figure11(nil)
	if err != nil {
		return err
	}
	fmt.Println("-- throughput (tuples/s) --")
	experiments.PrintSeries(os.Stdout, "throughput",
		res.ProposedW1, res.ProposedW2, res.RoundRobinW1, res.RoundRobinW2)
	return nil
}

func runFig12() error {
	res, err := experiments.Figure12_13(nil)
	if err != nil {
		return err
	}
	fmt.Println("-- Figure 12: observed latency (ms) --")
	experiments.PrintSeries(os.Stdout, "latency", res.AllGrouping, res.AllRules, res.Ours)
	fmt.Println("-- Figure 13: achieved throughput (tuples/s) --")
	experiments.PrintSeries(os.Stdout, "throughput", res.AllGrouping, res.AllRules, res.Ours)
	return nil
}

func runFig14() error {
	series, err := experiments.Figure14_15(nil)
	if err != nil {
		return err
	}
	fmt.Println("-- Figure 14: observed latency (ms) --")
	experiments.PrintSeries(os.Stdout, "latency", series...)
	fmt.Println("-- Figure 15: achieved throughput (tuples/s) --")
	experiments.PrintSeries(os.Stdout, "throughput", series...)
	return nil
}

func runFig16() error {
	series, err := experiments.Figure16_17(nil)
	if err != nil {
		return err
	}
	fmt.Println("-- Figure 16: observed latency (ms) --")
	experiments.PrintSeries(os.Stdout, "latency", series...)
	fmt.Println("-- Figure 17: achieved throughput (tuples/s) --")
	experiments.PrintSeries(os.Stdout, "throughput", series...)
	return nil
}

func runTable6() error {
	for _, row := range experiments.Table6() {
		fmt.Printf("%-16s %s\n", row[0], row[1])
	}
	return nil
}

func runRebalance() error {
	res, err := experiments.SkewShift(experiments.SkewShiftConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("skew trigger threshold (max/mean): %.2f\n", res.Threshold)
	fmt.Printf("final-window skew, static routing:  %.3f\n", res.StaticSkew)
	fmt.Printf("final-window skew, live rebalance:  %.3f\n", res.RebalancedSkew)
	fmt.Printf("routing swaps: %d, locations moved: %d\n", res.Swaps, res.Moves)
	fmt.Printf("rebalance cycle duration: %v\n", res.RebalanceDuration)
	// Machine-readable lines for scripts/bench_rebalance.sh.
	fmt.Printf("threshold=%g\n", res.Threshold)
	fmt.Printf("static_skew=%g\n", res.StaticSkew)
	fmt.Printf("rebalanced_skew=%g\n", res.RebalancedSkew)
	fmt.Printf("swaps=%d\n", res.Swaps)
	fmt.Printf("moves=%d\n", res.Moves)
	fmt.Printf("rebalance_us=%d\n", res.RebalanceDuration.Microseconds())
	return nil
}
