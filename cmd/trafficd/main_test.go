package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/geo"
	"trafficcep/internal/storm"
)

// TestParseFlagsAckValidation pins the flag-combination checks: reliability
// knobs without -ack.timeout used to parse fine and silently do nothing.
func TestParseFlagsAckValidation(t *testing.T) {
	base := []string{"-traces", "t.csv"}
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; "" = must parse
		check   func(t *testing.T, opt options)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, opt options) {
				if opt.ackMode != storm.AckXOR {
					t.Errorf("default ack mode = %v, want xor", opt.ackMode)
				}
				if opt.ackRetries != 3 {
					t.Errorf("default ack retries = %d, want 3", opt.ackRetries)
				}
			},
		},
		{
			name: "acking enabled with knobs",
			args: []string{"-ack.timeout", "5s", "-ack.retries", "7", "-ack.mode", "xor"},
			check: func(t *testing.T, opt options) {
				if opt.ackTimeout != 5*time.Second || opt.ackRetries != 7 || opt.ackMode != storm.AckXOR {
					t.Errorf("parsed ack options = %+v", opt)
				}
			},
		},
		{
			name:    "retries without timeout",
			args:    []string{"-ack.retries", "5"},
			wantErr: "-ack.retries has no effect without -ack.timeout",
		},
		{
			name:    "mode without timeout",
			args:    []string{"-ack.mode", "epoch"},
			wantErr: "-ack.mode has no effect without -ack.timeout",
		},
		{
			name:    "retries with explicit zero timeout",
			args:    []string{"-ack.timeout", "0s", "-ack.retries", "5"},
			wantErr: "has no effect without -ack.timeout",
		},
		{
			name:    "unknown mode",
			args:    []string{"-ack.timeout", "1s", "-ack.mode", "bogus"},
			wantErr: `unknown ack mode "bogus"`,
		},
		{
			name:    "retired tree mode lists the valid modes",
			args:    []string{"-ack.timeout", "1s", "-ack.mode", "tree"},
			wantErr: `unknown ack mode "tree" (want xor or epoch)`,
		},
		{
			name:    "sub-millisecond timeout",
			args:    []string{"-ack.timeout", "200us"},
			wantErr: "below the 1ms sweep granularity",
		},
		{
			name: "epoch mode with interval",
			args: []string{"-ack.timeout", "1s", "-ack.mode", "epoch", "-epoch.interval", "25ms"},
			check: func(t *testing.T, opt options) {
				if opt.ackMode != storm.AckEpoch || opt.epochInterval != 25*time.Millisecond {
					t.Errorf("parsed epoch options = %+v", opt)
				}
			},
		},
		{
			name: "epoch mode default interval",
			args: []string{"-ack.timeout", "1s", "-ack.mode", "epoch"},
			check: func(t *testing.T, opt options) {
				if opt.epochInterval != 0 {
					t.Errorf("epoch interval = %v, want 0 (storm default applies)", opt.epochInterval)
				}
			},
		},
		{
			name:    "epoch interval without epoch mode",
			args:    []string{"-ack.timeout", "1s", "-epoch.interval", "25ms"},
			wantErr: "-epoch.interval has no effect without -ack.mode epoch",
		},
		{
			name:    "epoch interval under xor mode",
			args:    []string{"-ack.timeout", "1s", "-ack.mode", "xor", "-epoch.interval", "25ms"},
			wantErr: "-epoch.interval has no effect without -ack.mode epoch",
		},
		{
			name:    "epoch interval without timeout",
			args:    []string{"-ack.mode", "epoch", "-epoch.interval", "25ms"},
			wantErr: "has no effect without -ack.timeout",
		},
		{
			name:    "negative epoch interval",
			args:    []string{"-ack.timeout", "1s", "-ack.mode", "epoch", "-epoch.interval", "-5ms"},
			wantErr: "-epoch.interval must be >= 0",
		},
		{
			name:    "missing traces",
			args:    []string{"-ack.timeout", "1s"},
			wantErr: "-traces is required",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.name != "missing traces" {
				args = append(append([]string{}, base...), tc.args...)
			}
			opt, err := parseFlags(args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseFlags(%q) error = %v, want substring %q", args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseFlags(%q) unexpected error: %v", args, err)
			}
			if tc.check != nil {
				tc.check(t, opt)
			}
		})
	}
}

// TestShippedTopologyDetectionsReproducible runs the embedded topology
// twice over one feed and requires the same stored-detection count. The
// feed makes that count depend on nothing but the order in which
// PreProcess sees each vehicle's traces: every delay is 0, and each vehicle
// repeats stand, jump 1 km, stand, jump back on a 20 s tick — standing is
// 0 km/h and a 180 km/h jump is discarded as GPS noise, so in feed order
// every attribute of every tuple is exactly 0, every threshold is 0, and
// no window average can exceed it however the parallel bolts downstream
// interleave. Two BusReader tasks split the feed round-robin; with an odd
// vehicle count that hands one task a vehicle's even ticks and the other
// its odd ticks, PreProcess then sees ticks two apart — the same jump over
// 40 s, a plausible 90 km/h — and the speed rule fires a different number
// of times on every run.
func TestShippedTopologyDetectionsReproducible(t *testing.T) {
	const vehicles, ticks = 5, 120
	start := time.Date(2013, 1, 7, 10, 0, 0, 0, time.UTC)
	var traces []busdata.Trace
	for k := 0; k < ticks; k++ {
		for v := 0; v < vehicles; v++ {
			pos := geo.Point{Lat: 53.30 + 0.02*float64(v), Lon: -6.26}
			if k%4 >= 2 {
				pos.Lat += 0.009 // ≈ 1 km north
			}
			traces = append(traces, busdata.Trace{
				Timestamp: start.Add(time.Duration(k) * 20 * time.Second),
				LineID:    fmt.Sprintf("L%d", v), Pos: pos,
				BusStop: fmt.Sprintf("S%d", v), VehicleID: fmt.Sprintf("V%d", v),
			})
		}
	}
	opt, err := parseFlags([]string{"-traces", writeFeed(t, traces), "-monitor", "0", "-telemetry.off"})
	if err != nil {
		t.Fatal(err)
	}

	stored := func() (detections, engineTuples int) {
		t.Helper()
		text := runOutput(t, opt)
		return outputField(t, text, `detected events stored: (\d+)`), outputField(t, text, `EsperBolt\s+executed=(\d+)`)
	}
	first, tuples := stored()
	second, _ := stored()
	if tuples == 0 {
		t.Fatal("no tuple reached the engines: the run proves nothing")
	}
	if first != second {
		t.Errorf("identical runs stored %d and %d detections", first, second)
	}
	if first != 0 {
		t.Errorf("stored %d detections over a feed whose attributes are all 0 in per-vehicle order", first)
	}
}

// TestShippedTopologyRebalances drives the shipped assembly with live
// rebalancing on, over a feed whose hotspot moves between its halves: every
// vehicle stands at its own stop; in the first half the vehicles the
// start-up partition (equal whole-feed rates, so stops dealt round-robin in
// name order) put on engines 0 and 1 report four times as often as the
// rest, in the second half it is the other way round. The splitter must
// feed the estimators, or no cycle can ever swap; a swap must cost no
// tuple; and the summary line reports cycles, swaps and moves, nothing
// else.
func TestShippedTopologyRebalances(t *testing.T) {
	const vehicles, ticksPerHalf = 16, 400
	start := time.Date(2013, 1, 7, 10, 0, 0, 0, time.UTC)
	var traces []busdata.Trace
	for k := 0; k < 2*ticksPerHalf; k++ {
		for v := 0; v < vehicles; v++ {
			hot := (v%4 < 2) == (k < ticksPerHalf)
			if !hot && k%4 != 0 {
				continue
			}
			// Hot-first vehicles in the north, the others in the south.
			pos := geo.Point{Lat: 53.30 + 0.005*float64(v/4), Lon: -6.35 + 0.02*float64(v)}
			if v%4 < 2 {
				pos.Lat += 0.08
			}
			traces = append(traces, busdata.Trace{
				Timestamp: start.Add(time.Duration(k) * 20 * time.Second),
				LineID:    fmt.Sprintf("L%02d", v), Pos: pos,
				BusStop: fmt.Sprintf("S%02d", v), VehicleID: fmt.Sprintf("V%02d", v),
			})
		}
	}
	opt, err := parseFlags([]string{
		"-traces", writeFeed(t, traces), "-monitor", "0", "-telemetry.off",
		"-rebalance.interval", "5ms", "-rebalance.skew", "1.05",
	})
	if err != nil {
		t.Fatal(err)
	}
	text := runOutput(t, opt)
	if swaps := outputField(t, text, `(?m)^rebalancing: cycles=\d+ swaps=(\d+) moves=\d+$`); swaps < 1 {
		t.Errorf("the hotspot moved and no cycle swapped the routing table:\n%s", text)
	}
	totals := regexp.MustCompile(`(?m)^\s+(\w+)\s+executed=.*$`).FindAllSubmatch(text, -1)
	if len(totals) != 7 {
		t.Fatalf("%d component totals lines, want 7:\n%s", len(totals), text)
	}
	clean := regexp.MustCompile(`errors=0\s+dropped=0\s`)
	for _, m := range totals {
		if !clean.Match(m[0]) {
			t.Errorf("%s lost tuples across the swaps: %s", m[1], m[0])
		}
	}
}

// writeFeed writes traces to a CSV in the test's temp dir and returns its path.
func writeFeed(t *testing.T, traces []busdata.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "traces.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := busdata.WriteCSV(f, traces); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOutput runs trafficd's run and returns what it printed: run reports on
// stdout, so point that at a file for the duration.
func runOutput(t *testing.T, opt options) []byte {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = run(opt)
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// outputField returns the number re captures in trafficd's output.
func outputField(t *testing.T, text []byte, re string) int {
	t.Helper()
	m := regexp.MustCompile(re).FindSubmatch(text)
	if m == nil {
		t.Fatalf("no %q in trafficd output:\n%s", re, text)
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}
