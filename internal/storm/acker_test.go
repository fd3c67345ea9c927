package storm

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAckModeParseAndString pins the flag surface of the mode selector.
func TestAckModeParseAndString(t *testing.T) {
	for in, want := range map[string]AckMode{
		"xor": AckXOR, "XOR": AckXOR, "Xor": AckXOR,
		"epoch": AckEpoch, "EPOCH": AckEpoch, "Epoch": AckEpoch,
	} {
		got, err := ParseAckMode(in)
		if err != nil || got != want {
			t.Errorf("ParseAckMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"bogus", "tree"} {
		if _, err := ParseAckMode(in); err == nil {
			t.Errorf("ParseAckMode(%s) succeeded, want error", in)
		}
	}
	if AckXOR.String() != "xor" || AckEpoch.String() != "epoch" {
		t.Errorf("String() = %q/%q, want xor/epoch", AckXOR, AckEpoch)
	}
}

// TestAckerBackoffOverflowClamp is the regression for the exponential
// backoff at high retry counts: timeout << retries used to overflow for
// retries ≥ 64 (and for large timeouts much earlier), yielding negative or
// zero deadlines that put expired roots into a hot replay loop.
func TestAckerBackoffOverflowClamp(t *testing.T) {
	timeout := 30 * time.Second
	prev := time.Duration(0)
	for r := 0; r <= 12; r++ {
		b := backoffFor(timeout, r)
		if b <= 0 {
			t.Fatalf("backoffFor(%v, %d) = %v, want > 0", timeout, r, b)
		}
		if b < prev {
			t.Fatalf("backoffFor(%v, %d) = %v < previous %v, want monotone", timeout, r, b, prev)
		}
		prev = b
	}
	// The shift clamps at 10, so every higher retry count matches.
	if got, want := backoffFor(timeout, 64), backoffFor(timeout, 10); got != want {
		t.Fatalf("backoffFor(64) = %v, want clamp to backoffFor(10) = %v", got, want)
	}
	for _, r := range []int{63, 64, 65, 1000, math.MaxInt32} {
		if b := backoffFor(timeout, r); b != timeout<<10 {
			t.Fatalf("backoffFor(%v, %d) = %v, want %v", timeout, r, b, timeout<<10)
		}
	}
	// Large timeouts saturate instead of wrapping negative.
	for _, d := range []time.Duration{math.MaxInt64, math.MaxInt64 / 2, math.MaxInt64 >> 10} {
		for _, r := range []int{1, 10, 64} {
			if b := backoffFor(d, r); b <= 0 {
				t.Fatalf("backoffFor(%v, %d) = %v, want positive (saturated)", d, r, b)
			}
		}
	}
	// Deadline arithmetic saturates too: a saturated backoff added to a
	// wall-clock nanosecond stamp must not wrap past MaxInt64.
	if got := satAddNanos(math.MaxInt64-5, int64(time.Hour)); got != math.MaxInt64 {
		t.Fatalf("satAddNanos near MaxInt64 = %d, want MaxInt64", got)
	}
	if got := satAddNanos(time.Now().UnixNano(), math.MaxInt64>>1); got <= 0 {
		t.Fatalf("satAddNanos(now, MaxInt64>>1) = %d, want positive", got)
	}
}

// TestAckModeTimeoutQuantization pins the sweep-granularity contract of
// WithAckTimeout: sub-millisecond timeouts used to be accepted silently
// but enforced by a sweeper ticking at the 1ms floor, firing replays up to
// 4× later than requested. The config now rounds them up to 1ms, and for
// any honored timeout the tick never exceeds the timeout itself, so a
// replay or expiry fires at most 2× the configured deadline.
func TestAckModeTimeoutQuantization(t *testing.T) {
	c := config{AckTimeout: 200 * time.Microsecond}
	c.fill()
	if c.AckTimeout != time.Millisecond {
		t.Fatalf("fill() left sub-ms AckTimeout at %v, want rounding up to 1ms", c.AckTimeout)
	}
	var off config
	off.fill()
	if off.AckTimeout != 0 {
		t.Fatalf("fill() enabled acking: AckTimeout = %v, want 0", off.AckTimeout)
	}
	for _, d := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		40 * time.Millisecond, 400 * time.Millisecond, 10 * time.Second,
	} {
		tick := sweepTick(d)
		if tick < time.Millisecond || tick > 100*time.Millisecond {
			t.Errorf("sweepTick(%v) = %v, want within [1ms, 100ms]", d, tick)
		}
		if tick > d {
			t.Errorf("sweepTick(%v) = %v exceeds the timeout: worst-case replay would fire later than 2× the deadline", d, tick)
		}
	}
}

// diffCounts is the comparable outcome of one differential run: spout
// callbacks, fault totals, and per-task delivery counters (ProcNanos is
// timing and excluded).
type diffCounts struct {
	Acked   map[string]int
	Failed  map[string]int
	Replays uint64
	AckedN  uint64
	Dropped uint64
	Tasks   map[string][]taskMetrics
}

func stripNanos(m map[string][]taskMetrics) map[string][]taskMetrics {
	out := make(map[string][]taskMetrics, len(m))
	for comp, tasks := range m {
		ts := make([]taskMetrics, len(tasks))
		for i, tm := range tasks {
			tm.ProcNanos = 0
			ts[i] = tm
		}
		out[comp] = ts
	}
	return out
}

// diffScenario runs the Figure-8-shaped anchored pipeline with induced
// failures under the XOR acker at one (batch, workers) cell: every i%5==0
// tuple fails its first attempt (transient, replays once, then acks) and
// tuple 7 fails every attempt (poison, expires after maxRetries replays).
func diffScenario(t *testing.T, batch, workers int) diffCounts {
	t.Helper()
	const n = 40
	spout := newAckSpout(n)
	var mu sync.Mutex
	attempts := map[any]int{}
	flaky := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, col Collector) error {
			i := tp.Values["i"]
			mu.Lock()
			attempts[i]++
			a := attempts[i]
			mu.Unlock()
			if i == 7 {
				return fmt.Errorf("poison tuple")
			}
			if ii, _ := i.(int); ii%5 == 0 && a == 1 {
				return fmt.Errorf("transient failure")
			}
			col.Emit(tp.Values)
			return nil
		}}
	}
	build := func(worker int) *TopologyBuilder {
		b := NewTopologyBuilder("diff")
		b.SetSpout("src", func() Spout { return spout }, 1, 1)
		b.SetBolt("flaky", flaky, 2, 2).FieldsGrouping("src", "key")
		b.SetBolt("sink", func() Bolt {
			return &funcBolt{exec: func(Tuple, Collector) error { return nil }}
		}, 1, 1).ShuffleGrouping("flaky")
		return b
	}
	opts := []Option{
		WithAckTimeout(150 * time.Millisecond),
		WithMaxRetries(1),
		WithFailurePolicy(Degrade),
		withQuarantineAfter(1_000_000),
		WithBatchSize(batch),
	}
	res := diffCounts{Replays: 0}
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
			t.Fatalf("batch=%d: %v", batch, err)
		}
		ft := rt.FaultTotals()
		res.Replays, res.AckedN, res.Dropped = ft.Replays, ft.Acked, ft.Dropped
		res.Tasks = stripNanos(rt.taskMetricsSnapshot())
	} else {
		rig := newDistRig(t, workers, build, opts...)
		rig.run(t, 30*time.Second)
		for i, err := range rig.errs {
			if err != nil {
				t.Fatalf("batch=%d worker %d: %v", batch, i, err)
			}
		}
		for _, rt := range rig.rts {
			ft := rt.FaultTotals()
			res.Replays += ft.Replays
			res.AckedN += ft.Acked
			res.Dropped += ft.Dropped
		}
		res.Tasks = stripNanos(rig.metrics())
	}
	spout.mu.Lock()
	res.Acked = spout.acked
	res.Failed = spout.failed
	spout.mu.Unlock()
	return res
}

// TestAckerDifferentialCountEquivalence pins the XOR acker's outcome under
// identical induced failures: the absolute spout callbacks and
// replay/ack/drop totals at every cell, and — since none of them may
// depend on how the tuples travelled — identical per-task delivery
// counters, callbacks and totals across batch sizes 1 and 64, in-process
// and across a 2-worker loopback cluster.
func TestAckerDifferentialCountEquivalence(t *testing.T) {
	ref := diffScenario(t, 1, 1)
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
			r := diffScenario(t, tc.batch, tc.workers)

			// 39 of 40 tuples ack (tuple 7 expires), 8 transients replay
			// once each, the poison replays once before expiring.
			if len(r.Acked) != 39 || r.Failed["7"] != 1 || len(r.Failed) != 1 {
				t.Errorf("acked %d ids, failed %v; want 39 acked and only id 7 failed", len(r.Acked), r.Failed)
			}
			if r.Replays != 9 {
				t.Errorf("replays = %d, want 9 (8 transient + 1 poison)", r.Replays)
			}
			if r.AckedN != 39 || r.Dropped != 1 {
				t.Errorf("acked = %d dropped = %d, want 39 and 1", r.AckedN, r.Dropped)
			}
			if !reflect.DeepEqual(ref, r) {
				t.Errorf("counts diverge from a second batch=1/workers=1 run:\n ref: %+v\n got: %+v", ref, r)
			}
		})
	}
}

// pooledSpout emits anchored tuples whose Values maps come from a shared
// pool which the consumer releases them into as soon as it has executed the
// tuple — the harshest form of a consumer that writes to its input, which
// is what every bolt on an exclusive edge may do (TaskContext.ExclusiveInput).
type pooledSpout struct {
	n, i int
	pool *sync.Pool

	mu     sync.Mutex
	acked  map[string]int
	failed map[string]int
}

func (s *pooledSpout) Open(TaskContext) error { return nil }
func (s *pooledSpout) Close() error           { return nil }
func (s *pooledSpout) NextTuple(col Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	vals := s.pool.Get().(map[string]any)
	clear(vals)
	vals["i"] = s.i
	col.(AnchorCollector).EmitAnchored(strconv.Itoa(s.i), vals)
	s.i++
	return s.i < s.n, nil
}
func (s *pooledSpout) Ack(msgID string) {
	s.mu.Lock()
	s.acked[msgID]++
	s.mu.Unlock()
}
func (s *pooledSpout) Fail(msgID string) {
	s.mu.Lock()
	s.failed[msgID]++
	s.mu.Unlock()
}

// TestAckerRegisterSnapshotsBeforeDelivery is the regression for the
// pooled-payload race on root registration: at batch size 1 an anchored
// envelope reaches its consumer inside the emission's deliver loop, so a
// bolt that clears and releases the emitted Values map runs concurrently
// with whatever still reads that map on the emitting side. The replay
// snapshot must therefore be taken before the first delivery ships —
// snapshotting in register (after delivery) races the live map (caught by
// -race) and corrupts replay payloads. Induced transient failures force
// replays that must still see the original payload.
func TestAckerRegisterSnapshotsBeforeDelivery(t *testing.T) {
	const n = 60
	pool := &sync.Pool{New: func() any { return map[string]any{} }}
	spout := &pooledSpout{n: n, pool: pool, acked: map[string]int{}, failed: map[string]int{}}
	var mu sync.Mutex
	attempts := map[int]int{}
	badPayload := 0
	eater := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, _ Collector) error {
			i, ok := tp.Values["i"].(int)
			if !ok {
				mu.Lock()
				badPayload++
				mu.Unlock()
				return nil
			}
			mu.Lock()
			attempts[i]++
			first := attempts[i] == 1
			mu.Unlock()
			// Release the payload the moment it was read: the exact hazard
			// the pre-delivery snapshot exists for.
			clear(tp.Values)
			pool.Put(tp.Values)
			if first && i%3 == 0 {
				return fmt.Errorf("transient failure")
			}
			return nil
		}}
	}
	b := NewTopologyBuilder("pooled")
	b.SetSpout("src", func() Spout { return spout }, 1, 1)
	b.SetBolt("eater", eater, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo,
		WithAckTimeout(100*time.Millisecond),
		WithMaxRetries(5),
		WithAckMode(AckXOR),
		WithFailurePolicy(Degrade),
		withQuarantineAfter(1_000_000),
		WithBatchSize(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if badPayload != 0 {
		t.Errorf("%d deliveries arrived with a corrupted payload (missing %q field)", badPayload, "i")
	}
	spout.mu.Lock()
	defer spout.mu.Unlock()
	if len(spout.acked) != n || len(spout.failed) != 0 {
		t.Errorf("acked %d ids, failed %v; want %d acked and none failed", len(spout.acked), spout.failed, n)
	}
	for i := 0; i < n; i++ {
		want := 1
		if i%3 == 0 {
			want = 2 // transient: original attempt + one replay, both with the original payload
		}
		if attempts[i] != want {
			t.Errorf("tuple %d executed %d times, want %d", i, attempts[i], want)
		}
	}
}

// TestAckerStopSkipsRemoteSends is the regression for the remote branch of
// apply: unlike local updates (dropped under the table lock's stopped
// check), updates for roots owned by another worker used to be handed to
// sendRemote even after the acker stopped, pushing frames into a transport
// that may be mid-teardown. A late drop or replay completion arriving
// after cancellation must be a no-op.
func TestAckerStopSkipsRemoteSends(t *testing.T) {
	a := newXorAcker(&Runtime{cfg: config{selfWorker: 0, peers: []string{"a", "b"}}}, time.Hour, 3)
	var sends atomic.Int32
	a.sendRemote = func(worker int, ents []ackUpdate) {
		if worker != 1 {
			t.Errorf("update routed to worker %d, want 1", worker)
		}
		sends.Add(1)
	}
	remoteRoot := uint64(1)<<a.workerBits | 1 // sequence 1 owned by worker 1
	a.apply(remoteRoot, 0xbeef, false)
	if got := sends.Load(); got != 1 {
		t.Fatalf("live acker forwarded %d remote updates, want 1", got)
	}
	a.cancelAll()
	a.apply(remoteRoot, 0xbeef, true)
	a.apply(remoteRoot, 0, true)
	if got := sends.Load(); got != 1 {
		t.Fatalf("stopped acker forwarded %d remote updates, want the pre-stop 1 only", got)
	}
}

// TestAckerDuplicateFailKeepsBackoffDeadline pins the backoff transition
// of a failed tree: duplicate zero-net fail updates (a multi-drop tree
// pushes one fail per dropped hop) re-enter resolveLocked while the root is parked
// awaiting replay. Each re-entry used to re-arm the deadline, shoving the
// replay arbitrarily far into the future under a steady duplicate trickle.
func TestAckerDuplicateFailKeepsBackoffDeadline(t *testing.T) {
	a := newXorAcker(&Runtime{cfg: config{}}, time.Hour, 3)
	spout := newAckSpout(0)
	rc := &runningComponent{spec: &componentSpec{id: "src"}}
	ts := &taskState{ackSpout: spout}
	root := a.newRoot()
	const edge = uint64(0xabcdef)
	var vals []kvEntry
	a.register(root, rc, ts, "m", Tuple{}, &vals, edge, false, time.Now())

	readRoot := func() (deadline int64, backoff, live bool) {
		p, live := a.lookup(root)
		return p.deadline, p.backoff, live
	}

	// Drain the tree with a fail bit: the root parks in backoff.
	a.apply(root, edge, true)
	d1, backoff, live := readRoot()
	if !live || !backoff {
		t.Fatalf("after fail-drain: live=%v backoff=%v, want a parked backoff root", live, backoff)
	}
	// Duplicate zero-net fails must leave the armed deadline alone.
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond)
		a.apply(root, 0, true)
		d2, backoff2, live2 := readRoot()
		if !live2 || !backoff2 {
			t.Fatalf("duplicate %d resolved the parked root: live=%v backoff=%v", i, live2, backoff2)
		}
		if d2 != d1 {
			t.Fatalf("duplicate %d moved the replay deadline %d → %d", i, d1, d2)
		}
	}
	spout.mu.Lock()
	defer spout.mu.Unlock()
	if len(spout.acked)+len(spout.failed) != 0 {
		t.Fatalf("parked root fired callbacks: acked=%v failed=%v", spout.acked, spout.failed)
	}
}

// TestAckerZeroChecksumRegisterSingleAck pins the checksum==0-at-register
// fast path against duplicate spout callbacks: when the whole tree's
// updates beat the register to the table, register resolves inline — and
// any update straggling in afterwards must land in a fresh placeholder
// (the root id is gone), never re-fire Ack for the same message id.
func TestAckerZeroChecksumRegisterSingleAck(t *testing.T) {
	a := newXorAcker(&Runtime{cfg: config{}}, time.Hour, 3)
	spout := newAckSpout(0)
	rc := &runningComponent{spec: &componentSpec{id: "src"}}
	ts := &taskState{ackSpout: spout}
	root := a.newRoot()
	const edge = uint64(0x1234)

	// The consumer's update arrives first (parks a placeholder), then the
	// emitter registers with the matching init checksum: zero at register,
	// inline resolve.
	a.apply(root, edge, false)
	var vals []kvEntry
	a.register(root, rc, ts, "m", Tuple{}, &vals, edge, false, time.Now())
	spout.mu.Lock()
	acked := spout.acked["m"]
	spout.mu.Unlock()
	if acked != 1 {
		t.Fatalf("inline register resolve fired Ack %d times, want 1", acked)
	}
	if got := ts.ackPending.Load(); got != 0 {
		t.Fatalf("ackPending = %d after inline resolve, want 0", got)
	}

	// Stragglers for the recycled id: zero-net acks and fails alike must
	// not resurrect the resolved root or duplicate its callbacks.
	a.apply(root, 0, false)
	a.apply(root, 0, true)
	spout.mu.Lock()
	defer spout.mu.Unlock()
	if spout.acked["m"] != 1 || len(spout.failed) != 0 {
		t.Fatalf("stragglers duplicated callbacks: acked=%v failed=%v", spout.acked, spout.failed)
	}
}

// lookup copies root's table entry under the acker lock.
func (a *xorAcker) lookup(root uint64) (xorRoot, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.roots[root]
	if p == nil {
		return xorRoot{}, false
	}
	return *p, true
}
