package storm

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestWorkerIDOutOfRange: a worker id must index the peer list, and a run
// without peers is the one worker 0. Before the check counted a missing
// peer list as one worker, WithWorker(3, nil) built a runtime whose worker
// mask owned no acker root.
func TestWorkerIDOutOfRange(t *testing.T) {
	topo := func() *Topology {
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return &seqSpout{n: 3, keys: 1} }, 1, 1)
		b.SetBolt("sink", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("src")
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	for _, id := range []int{3, -1, 1} {
		if _, err := New(topo(), WithWorker(id, nil)); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("WithWorker(%d, nil): err = %v, want out of range", id, err)
		}
	}
	if _, err := New(topo(), WithWorker(2, []string{"127.0.0.1:1", "127.0.0.1:2"})); err == nil {
		t.Error("WithWorker(2, two peers) was accepted")
	}
	// Acked, so that the one worker's acker must own every root.
	rt, err := New(topo(), WithWorker(0, nil), WithAckTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tot := range rt.Monitor().TotalsByComponent() {
		if tot.Component == "sink" && (tot.Executed != 3 || tot.Errors != 0 || tot.Dropped != 0) {
			t.Fatalf("sink executed/errors/dropped = %d/%d/%d, want 3/0/0", tot.Executed, tot.Errors, tot.Dropped)
		}
	}
}

// blockBolt blocks in Execute until release is closed, announcing on
// entered that it did.
type blockBolt struct{ entered, release chan struct{} }

func (b *blockBolt) Prepare(TaskContext) error { return nil }
func (b *blockBolt) Execute(Tuple, Collector) error {
	b.entered <- struct{}{}
	<-b.release
	return nil
}
func (b *blockBolt) Cleanup() error { return nil }

// TestExecutorGoroutinesCarryComponentLabels: while a bolt blocks in
// Execute, the goroutine profile shows its goroutine labelled with the
// bolt's component and worker — what `go tool pprof -tags` splits CPU by.
func TestExecutorGoroutinesCarryComponentLabels(t *testing.T) {
	bolt := &blockBolt{entered: make(chan struct{}), release: make(chan struct{})}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 1, keys: 1} }, 1, 1)
	b.SetBolt("blocker", func() Bolt { return bolt }, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Run() }()
	<-bolt.entered
	var buf bytes.Buffer
	err = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	close(bolt.release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var labels string
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(rec, "(*blockBolt).Execute") {
			for _, line := range strings.Split(rec, "\n") {
				if strings.HasPrefix(line, "# labels:") {
					labels = line
				}
			}
		}
	}
	if !strings.Contains(labels, `"component":"blocker"`) || !strings.Contains(labels, `"worker":"0"`) {
		t.Fatalf("the blocked Execute's goroutine is labelled %q, want component blocker on worker 0\n%s", labels, buf.String())
	}
}
