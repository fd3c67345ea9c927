package storm_test

import (
	"fmt"
	"sync/atomic"

	"trafficcep/internal/storm"
)

// countSpout emits n tuples then reports exhaustion.
type countSpout struct{ n, i int }

func (s *countSpout) Open(storm.TaskContext) error { return nil }
func (s *countSpout) Close() error                 { return nil }
func (s *countSpout) NextTuple(col storm.Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	col.Emit(map[string]any{"n": s.i})
	s.i++
	return s.i < s.n, nil
}

// sumBolt accumulates a shared total.
type sumBolt struct{ total *atomic.Int64 }

func (b *sumBolt) Prepare(storm.TaskContext) error { return nil }
func (b *sumBolt) Cleanup() error                  { return nil }
func (b *sumBolt) Execute(t storm.Tuple, _ storm.Collector) error {
	b.total.Add(int64(t.Values["n"].(int)))
	return nil
}

// Example wires a two-component topology, runs it to completion in this
// process, and reads the monitor totals.
func Example() {
	var total atomic.Int64
	b := storm.NewTopologyBuilder("sum")
	b.SetSpout("numbers", func() storm.Spout { return &countSpout{n: 100} }, 1, 1)
	b.SetBolt("adder", func() storm.Bolt { return &sumBolt{total: &total} }, 2, 2).
		ShuffleGrouping("numbers")
	topo, err := b.Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	rt, err := storm.New(topo)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := rt.Run(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("sum:", total.Load())
	for _, tot := range rt.Monitor().TotalsByComponent() {
		fmt.Printf("%s executed %d\n", tot.Component, tot.Executed)
	}
	// Output:
	// sum: 4950
	// adder executed 100
	// numbers executed 100
}
