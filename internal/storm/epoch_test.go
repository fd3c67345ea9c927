package storm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// epochSpout is a ReplayableSpout over the sequence [0, n): its replay
// position is the next index to emit, checkpointed as 8 bytes. Under a
// tracking mode it anchors emissions (so the same spout drives the XOR
// side of the differential harness); under AckEpoch, Acking() is false and
// it falls through to plain Emit.
type epochSpout struct {
	n, pos int

	mu       sync.Mutex
	restores int
}

func (s *epochSpout) Open(TaskContext) error { return nil }
func (s *epochSpout) Close() error           { return nil }
func (s *epochSpout) NextTuple(col Collector) (bool, error) {
	if s.pos >= s.n {
		return false, nil
	}
	vals := map[string]any{"i": s.pos, "key": s.pos % 4}
	if ac, ok := col.(AnchorCollector); ok && ac.Acking() {
		ac.EmitAnchored(fmt.Sprint(s.pos), vals)
	} else {
		col.Emit(vals)
	}
	s.pos++
	return s.pos < s.n, nil
}
func (s *epochSpout) Ack(string)  {}
func (s *epochSpout) Fail(string) {}
func (s *epochSpout) Checkpoint() []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(s.pos))
}
func (s *epochSpout) Restore(snap []byte) {
	s.pos = int(binary.BigEndian.Uint64(snap))
	s.mu.Lock()
	s.restores++
	s.mu.Unlock()
}
func (s *epochSpout) restoreCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restores
}

// uniqueSink counts sink deliveries per tuple id — the idempotent-sink
// model: distinct ids measure effectively-once delivery, per-id counts
// expose duplicates from replay.
type uniqueSink struct {
	mu    sync.Mutex
	seen  map[int]int
	total int
}

func newUniqueSink() *uniqueSink { return &uniqueSink{seen: map[int]int{}} }

func (u *uniqueSink) bolt() Bolt {
	return &funcBolt{exec: func(tp Tuple, _ Collector) error {
		u.mu.Lock()
		u.seen[tp.Values["i"].(int)]++
		u.total++
		u.mu.Unlock()
		return nil
	}}
}

func (u *uniqueSink) counts() (distinct, total, maxDup int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, c := range u.seen {
		if c > maxDup {
			maxDup = c
		}
	}
	return len(u.seen), u.total, maxDup
}

// epochCleanScenario runs a clean (no induced failures) three-stage
// pipeline under one (mode, batch, workers) configuration and returns the
// sink's id census plus summed fault totals. Every edge reconciles, so no
// end of stream arrived early or went missing, and at batch size 1 in one
// process mid counts exactly one batch per tuple: markers are not batches.
func epochCleanScenario(t *testing.T, mode AckMode, batch, workers int) (*uniqueSink, FaultTotals) {
	t.Helper()
	const n = 400
	spout := &epochSpout{n: n}
	sink := newUniqueSink()
	build := func(int) *TopologyBuilder {
		b := NewTopologyBuilder("epoch-diff")
		b.SetSpout("src", func() Spout { return spout }, 1, 1)
		b.SetBolt("mid", func() Bolt { return &passBolt{} }, 2, 2).FieldsGrouping("src", "key")
		b.SetBolt("sink", sink.bolt, 1, 1).ShuffleGrouping("mid")
		return b
	}
	opts := []Option{
		WithAckTimeout(5 * time.Second),
		WithAckMode(mode),
		WithBatchSize(batch),
	}
	if mode == AckEpoch {
		opts = append(opts, WithEpochInterval(10*time.Millisecond))
	}
	var ft FaultTotals
	if workers <= 1 {
		topo, err := build(0).Build()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(topo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(); err != nil {
			t.Fatalf("mode=%v batch=%d: %v", mode, batch, err)
		}
		ft = rt.FaultTotals()
		edgeReconciles(t, rt, "src", "mid")
		edgeReconciles(t, rt, "mid", "sink")
		if got := rt.comps["mid"].batchesIn.Load(); batch == 1 && got != n {
			t.Errorf("mode=%v: mid received %d batches, want %d", mode, got, n)
		}
	} else {
		rig := newDistRig(t, workers, build, opts...)
		rig.run(t, 30*time.Second)
		for i, err := range rig.errs {
			if err != nil {
				t.Fatalf("mode=%v batch=%d worker %d: %v", mode, batch, i, err)
			}
		}
		for _, rt := range rig.rts {
			w := rt.FaultTotals()
			ft.Replays += w.Replays
			ft.Acked += w.Acked
			ft.Dropped += w.Dropped
			ft.Panics += w.Panics
		}
		rig.edgeReconciles(t, "src", "mid")
		rig.edgeReconciles(t, "mid", "sink")
	}
	return sink, ft
}

// TestAckerEpochDifferentialCountEquivalence is the epoch-vs-XOR harness:
// on a clean run the two reliability modes must be indistinguishable at
// the sink — every id delivered exactly once — at batch sizes 1 and 64,
// in-process and across a 2-worker loopback cluster. It also pins the
// no-per-tuple-traffic property of epoch mode: zero acked/replayed roots.
func TestAckerEpochDifferentialCountEquivalence(t *testing.T) {
	const n = 400
	for _, tc := range []struct {
		batch, workers int
	}{
		{batch: 1, workers: 1},
		{batch: 64, workers: 1},
		{batch: 1, workers: 2},
		{batch: 64, workers: 2},
	} {
		tc := tc
		t.Run(fmt.Sprintf("batch=%d/workers=%d", tc.batch, tc.workers), func(t *testing.T) {
			xorSink, xorFT := epochCleanScenario(t, AckXOR, tc.batch, tc.workers)
			epSink, epFT := epochCleanScenario(t, AckEpoch, tc.batch, tc.workers)

			for name, s := range map[string]*uniqueSink{"xor": xorSink, "epoch": epSink} {
				distinct, total, maxDup := s.counts()
				if distinct != n || total != n || maxDup != 1 {
					t.Errorf("%s: distinct=%d total=%d maxDup=%d, want %d/%d/1",
						name, distinct, total, maxDup, n, n)
				}
			}
			if xorFT.Acked != n || xorFT.Replays != 0 || xorFT.Dropped != 0 {
				t.Errorf("xor fault totals: %+v, want %d acked, 0 replays, 0 dropped", xorFT, n)
			}
			// Epoch mode tracks no roots at all: acked/replays stay zero by
			// construction, and nothing may have been dropped.
			if epFT.Acked != 0 || epFT.Replays != 0 || epFT.Dropped != 0 || epFT.Panics != 0 {
				t.Errorf("epoch fault totals: %+v, want all-zero tracking counters", epFT)
			}
		})
	}
}

// epochKillScenario runs the kill-and-replay pipeline: the "flaky" bolt
// hard-errors the first execution of tuple `victim`, which epoch mode
// counts as loss — the in-flight epoch aborts, every ReplayableSpout
// rewinds to the last committed checkpoint, and the suffix replays. The
// idempotent sink must end with every id present (the victim included),
// the spout must have been restored at least once, and every edge
// reconciles.
func epochKillScenario(t *testing.T, workers int) {
	t.Helper()
	const (
		n      = 300
		victim = 137
	)
	spout := &epochSpout{n: n}
	sink := newUniqueSink()
	var failed atomic.Bool
	flaky := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, col Collector) error {
			if tp.Values["i"].(int) == victim && failed.CompareAndSwap(false, true) {
				return fmt.Errorf("induced one-shot failure")
			}
			col.Emit(tp.Values)
			return nil
		}}
	}
	build := func(int) *TopologyBuilder {
		b := NewTopologyBuilder("epoch-kill")
		b.SetSpout("src", func() Spout { return spout }, 1, 1)
		b.SetBolt("flaky", flaky, 2, 2).FieldsGrouping("src", "key")
		b.SetBolt("sink", sink.bolt, 1, 1).ShuffleGrouping("flaky")
		return b
	}
	opts := []Option{
		WithAckTimeout(5 * time.Second),
		WithAckMode(AckEpoch),
		WithEpochInterval(5 * time.Millisecond),
		WithMaxRetries(10),
		WithFailurePolicy(Degrade),
		WithQuarantineAfter(1_000_000),
		WithBatchSize(8),
	}
	if workers <= 1 {
		topo, err := build(0).Build()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(topo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		edgeReconciles(t, rt, "src", "flaky")
		edgeReconciles(t, rt, "flaky", "sink")
	} else {
		rig := newDistRig(t, workers, build, opts...)
		rig.run(t, 30*time.Second)
		for i, err := range rig.errs {
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
		rig.edgeReconciles(t, "src", "flaky")
		rig.edgeReconciles(t, "flaky", "sink")
	}
	if !failed.Load() {
		t.Fatal("induced failure never fired")
	}
	if got := spout.restoreCount(); got < 1 {
		t.Fatalf("spout restored %d times, want >= 1 (rewind never reached the spout)", got)
	}
	distinct, total, _ := sink.counts()
	if distinct != n {
		t.Fatalf("sink saw %d distinct ids, want exactly %d (victim %d present: %v)",
			distinct, n, victim, sink.seen[victim] > 0)
	}
	if total < n {
		t.Fatalf("sink total %d < %d: replay lost tuples instead of duplicating them", total, n)
	}
}

// TestAckerEpochKillAndReplay: single-process rewind-and-replay.
func TestAckerEpochKillAndReplay(t *testing.T) {
	epochKillScenario(t, 1)
}

// TestDistributedEpochKillAndReplay: the same recovery across a 2-worker
// loopback cluster — barriers, pass reports, and the rewind broadcast all
// cross the wire.
func TestDistributedEpochKillAndReplay(t *testing.T) {
	epochKillScenario(t, 2)
}

// TestAckModeEpochOptionValidation pins the config surface of epoch mode:
// interval defaulting and flooring, and the cross-option check that
// WithEpochInterval without WithAckMode(AckEpoch) is a construction error.
func TestAckModeEpochOptionValidation(t *testing.T) {
	c := config{AckMode: AckEpoch, AckTimeout: time.Second}
	c.fill()
	if c.EpochInterval != 100*time.Millisecond {
		t.Fatalf("default epoch interval = %v, want 100ms", c.EpochInterval)
	}
	c = config{AckMode: AckEpoch, AckTimeout: time.Second, EpochInterval: 200 * time.Microsecond}
	c.fill()
	if c.EpochInterval != time.Millisecond {
		t.Fatalf("sub-ms epoch interval = %v, want flooring to 1ms", c.EpochInterval)
	}

	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &epochSpout{n: 1} }, 1, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(topo, WithAckTimeout(time.Second), WithEpochInterval(time.Second)); err == nil {
		t.Fatal("WithEpochInterval under the default XOR mode built successfully, want error")
	}
	if _, err := New(topo, WithAckTimeout(time.Second), WithAckMode(AckEpoch), WithEpochInterval(time.Second)); err != nil {
		t.Fatalf("epoch mode with explicit interval: %v", err)
	}
}

// TestEpochLowestMarkDecides drives one bolt executor's input queue by hand:
// two spout executors feed mid, which feeds sink. The lowest mark over
// mid's two input edges is the epoch it forwards, an ended input never
// holds back the other, and once both inputs ended mid returns without
// forwarding. A worker whose executors have all exited then reports the
// epoch begun.
func TestEpochLowestMarkDecides(t *testing.T) {
	b := NewTopologyBuilder("marks")
	b.SetSpout("src", func() Spout { return &seqSpout{} }, 2, 2)
	b.SetBolt("mid", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("mid")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, WithAckTimeout(time.Second), WithAckMode(AckEpoch), WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	rt.epochs = newEpochCoordinator(rt) // the agent and coordinator loops stay off: reports wait in the outbox
	src, mid, sink := rt.comps["src"].execs, rt.comps["mid"].execs[0], rt.comps["sink"].execs[0]
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		rt.runBoltExecutor(mid.comp, mid)
	}()

	send := func(from *executor, mark uint64) { mid.in <- rt.marker(from.eid, mark) }
	next := func() *batch {
		t.Helper()
		select {
		case b := <-sink.in:
			return b
		case <-time.After(5 * time.Second):
			t.Fatal("mid sent nothing to the sink")
			return nil
		}
	}
	// forwards sends mid a data tuple and checks that mid forwarded epoch
	// want ahead of it (0: nothing): mid handles its input in order, so the
	// tuple's emission follows whatever the markers before it forwarded.
	forwards := func(want uint64) {
		t.Helper()
		probe := rt.getBatch()
		probe.envs = append(probe.envs, envelope{tuple: Tuple{Stream: DefaultStream, Values: map[string]any{}}})
		mid.in <- probe
		if want != 0 {
			if got := next(); got.mark != want || got.src != mid.eid {
				t.Fatalf("mid sent mark %d from executor %d, want epoch %d from executor %d", got.mark, got.src, want, mid.eid)
			}
		}
		if got := next(); got.mark != 0 || len(got.envs) != 1 {
			t.Fatalf("mid sent mark %d with %d envelopes ahead of the probe, want epoch %d", got.mark, len(got.envs), want)
		}
	}

	send(src[0], 1)
	forwards(0)
	send(src[1], 1)
	forwards(1)
	send(src[0], 3)
	send(src[1], 2)
	forwards(2)
	send(src[1], 3)
	forwards(3)
	send(src[0], markEnd)
	send(src[1], 4)
	forwards(4)
	send(src[1], markEnd)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("mid did not return once both inputs ended")
	}
	select {
	case got := <-sink.in:
		t.Fatalf("mid sent mark %d with %d envelopes after both inputs ended", got.mark, len(got.envs))
	default:
	}

	ec := rt.epochs
	for _, ex := range rt.execs {
		ec.pass(ex.eid, markEnd)
	}
	if len(ec.outbox) != 0 {
		t.Fatalf("%d reports before any epoch began, want none", len(ec.outbox))
	}
	if err := ec.apply(epochMsg{kind: epochBegin, w: [3]uint64{7}}); err != nil {
		t.Fatal(err)
	}
	if len(ec.outbox) != 1 {
		t.Fatalf("%d reports after epoch 7 began, want 1", len(ec.outbox))
	}
	if m := <-ec.outbox; m.kind != epochPass || m.w != [3]uint64{0, 7, 0} {
		t.Fatalf("report %+v, want worker 0 passing epoch 7 with no loss", m)
	}
}
