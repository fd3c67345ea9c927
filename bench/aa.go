package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the A/A run needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the driver computes spreads
// from. It needs two values at least.
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// runAA runs every workload of BENCHMARK.json `runs` times per set, each run a
// fresh process with its own seed as the driver does, prints each set's
// median, quartiles and spread per metric, and fails when one set's median is
// worse than another's by more than the metric's bound.
func runAA(sets, runs, seconds int) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa runs from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if runs < 2 {
		return fmt.Errorf("-runs %d: quartiles need two runs at least", runs)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	disagreements := 0
	for _, wl := range spec.Workloads {
		medians := make([]map[string]float64, sets)
		for set := range medians {
			values := map[string][]float64{}
			for seed := 1; seed <= runs; seed++ {
				res, err := runChild(exe, wl.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s set %d seed %d: %w", wl.Name, set+1, seed, err)
				}
				if res.Failed != 0 {
					return fmt.Errorf("%s set %d seed %d: %d of %d operations failed", wl.Name, set+1, seed, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					values[name] = append(values[name], m.Value)
				}
			}
			medians[set] = map[string]float64{}
			for _, em := range spec.EndToEnd {
				q := quartiles(values[em.Name])
				medians[set][em.Name] = q[1]
				fmt.Printf("%-14s set %d %-18s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f  (bound %.2f)\n",
					wl.Name, set+1, em.Name, q[1], q[0], q[2], (q[2]-q[0])/q[1], em.Bound)
			}
		}
		for _, em := range spec.EndToEnd {
			for a := 0; a < sets; a++ {
				for b := 0; b < sets; b++ {
					worse := (medians[b][em.Name] - medians[a][em.Name]) / medians[a][em.Name]
					if em.Better == "higher" {
						worse = -worse
					}
					if a != b && worse > em.Bound {
						disagreements++
						fmt.Printf("%-14s %-18s set %d is %.1f%% worse than set %d, bound %.0f%%\n",
							wl.Name, em.Name, b+1, 100*worse, a+1, 100*em.Bound)
					}
				}
			}
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("%d metric × workload pairs disagree between sets by more than their bound", disagreements)
	}
	return nil
}

func runChild(exe, workload string, seed, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line of output: %w", err)
	}
	return &res, nil
}
