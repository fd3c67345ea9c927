package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestDataset(t *testing.T) {
	res, err := Dataset(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Props.Buses != res.PaperBuses {
		t.Fatalf("buses = %d, want %d", res.Props.Buses, res.PaperBuses)
	}
	if res.Props.Lines != res.PaperLines {
		t.Fatalf("lines = %d, want %d", res.Props.Lines, res.PaperLines)
	}
	if res.Props.TuplesPerMin < 2.5 || res.Props.TuplesPerMin > 3.5 {
		t.Fatalf("tuples/min = %v, want ~%v", res.Props.TuplesPerMin, res.PaperTuplesPerMin)
	}
}

func TestFigure9FirstOrderFitsWell(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement")
	}
	res, err := Figure9(12, 150)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleCount != 12 {
		t.Fatalf("samples = %d", res.SampleCount)
	}
	if res.Order1MAE <= 0 {
		t.Fatal("MAE must be positive on noisy measurements")
	}
	// The paper's headline: the first-order model is usable; its held-out
	// MAPE should be a sane percentage (the paper reports ~60% lower
	// error than order 2; exact ratios vary run to run on live timing).
	if res.Order1MAPE > 200 {
		t.Fatalf("order-1 MAPE = %v%%, model useless", res.Order1MAPE)
	}
}

func TestFigure10StrategyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("live measurement")
	}
	res, err := Figure10(24, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	joinDB := res.Mean[StrategyJoinDB]
	many := res.Mean[StrategyManyRules]
	stream := res.Mean[StrategyStream]
	static := res.Mean[StrategyStatic]
	// Figure 10's ordering: join-with-SQL far above the rest; many-rules
	// above the stream approach; stream close to the no-retrieval optimum.
	if joinDB < 2*stream {
		t.Fatalf("join-with-db %v should dwarf stream %v", joinDB, stream)
	}
	if many < stream {
		t.Fatalf("many-rules %v should cost more than stream %v", many, stream)
	}
	if stream > 10*static+0.5 {
		t.Fatalf("stream %v should be comparable to static %v", stream, static)
	}
	for _, row := range res.Rows {
		if len(row.LatencyMs) != len(Strategies) {
			t.Fatalf("row %d missing strategies: %v", row.Window, row.LatencyMs)
		}
	}
}

func TestFigure11Shapes(t *testing.T) {
	res, err := Figure11([]int{4, 10, 18, 26})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.ProposedW1.Points {
		if res.ProposedW1.Points[i].Throughput < res.RoundRobinW1.Points[i].Throughput {
			t.Fatalf("W1 point %d: proposed below round robin", i)
		}
		if res.ProposedW2.Points[i].Throughput < res.RoundRobinW2.Points[i].Throughput {
			t.Fatalf("W2 point %d: proposed below round robin", i)
		}
	}
}

func TestFigure12Shapes(t *testing.T) {
	res, err := Figure12_13([]int{2, 8, 14})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Ours.Points {
		if res.Ours.Points[i].Throughput < res.AllGrouping.Points[i].Throughput {
			t.Fatalf("point %d: ours below all-grouping", i)
		}
		if res.Ours.Points[i].Throughput < res.AllRules.Points[i].Throughput {
			t.Fatalf("point %d: ours below all-rules", i)
		}
	}
}

func TestFigure14SeriesCount(t *testing.T) {
	series, err := Figure14_15([]int{3, 9, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(WorkloadMixes) {
		t.Fatalf("series = %d, want %d", len(series), len(WorkloadMixes))
	}
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("series %q has %d points", s.Name, len(s.Points))
		}
	}
}

func TestFigure16SeriesShapes(t *testing.T) {
	series, err := Figure16_17([]int{4, 9, 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	// At 14 engines, 7 VMs must beat 3 VMs on throughput.
	last := len(series[0].Points) - 1
	if series[2].Points[last].Throughput < series[0].Points[last].Throughput {
		t.Fatal("7 VMs should out-throughput 3 VMs at high engine counts")
	}
}

func TestTable6(t *testing.T) {
	rows := Table6()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(rows[2][1], "1000") {
		t.Fatalf("window row = %v", rows[2])
	}
}

func TestPrintSeries(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure12_13([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	PrintSeries(&buf, "throughput", res.Ours, res.AllRules)
	out := buf.String()
	if !strings.Contains(out, "our approach") || !strings.Contains(out, "all rules") {
		t.Fatalf("output missing headers:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Fatalf("want header + 2 rows:\n%s", out)
	}
}

func TestSkewShiftRecovery(t *testing.T) {
	res, err := SkewShift(SkewShiftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Static routing must degrade past the trigger threshold while live
	// rebalancing recovers below it — the acceptance criterion of the
	// dynamic loop.
	if res.StaticSkew < res.Threshold {
		t.Fatalf("static skew = %.3f, expected ≥ %.2f (hotspot must overload one engine)",
			res.StaticSkew, res.Threshold)
	}
	if res.RebalancedSkew >= res.Threshold {
		t.Fatalf("rebalanced skew = %.3f, want < %.2f", res.RebalancedSkew, res.Threshold)
	}
	if res.Swaps < 1 || res.Moves == 0 {
		t.Fatalf("no rebalancing activity: %+v", res)
	}
	// Determinism: the same configuration yields the same skews.
	again, err := SkewShift(SkewShiftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if again.StaticSkew != res.StaticSkew || again.RebalancedSkew != res.RebalancedSkew ||
		again.Swaps != res.Swaps || again.Moves != res.Moves {
		t.Fatalf("experiment not deterministic: %+v vs %+v", res, again)
	}
}
