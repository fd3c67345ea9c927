package storm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// distRig is a multi-worker topology running in one test process: every
// worker is a full Runtime with its own TCP peer links, talking to the
// others over 127.0.0.1.
type distRig struct {
	rts   []*Runtime
	errs  []error
	peers []string
}

// newDistRig builds n workers over pre-bound loopback listeners (so the
// peer list is known before any runtime starts) with build supplying each
// worker's identical topology. Extra options apply to every worker.
func newDistRig(t *testing.T, n int, build func(worker int) *TopologyBuilder, opts ...Option) *distRig {
	t.Helper()
	rig := &distRig{rts: make([]*Runtime, n), errs: make([]error, n)}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		rig.peers = append(rig.peers, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		topo, err := build(i).Build()
		if err != nil {
			t.Fatal(err)
		}
		wopts := append([]Option{WithWorker(i, rig.peers), WithListener(lns[i])}, opts...)
		rt, err := New(topo, wopts...)
		if err != nil {
			t.Fatal(err)
		}
		rig.rts[i] = rt
	}
	return rig
}

// run starts every worker and waits for all of them to drain.
func (rig *distRig) run(t *testing.T, timeout time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	for i, rt := range rig.rts {
		wg.Add(1)
		go func(i int, rt *Runtime) {
			defer wg.Done()
			rig.errs[i] = rt.Run()
		}(i, rt)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("distributed run did not drain")
	}
}

// summed per-task metrics across all workers: every counter is touched on
// exactly one worker (executed at the owner, emitted at the emitter,
// drops where they happen), so addition reassembles the global view.
func (rig *distRig) metrics() map[string][]taskMetrics {
	sum := map[string][]taskMetrics{}
	for _, rt := range rig.rts {
		for comp, tasks := range rt.taskMetricsSnapshot() {
			if sum[comp] == nil {
				sum[comp] = make([]taskMetrics, len(tasks))
			}
			for i, tm := range tasks {
				sum[comp][i].Executed += tm.Executed
				sum[comp][i].Emitted += tm.Emitted
				sum[comp][i].Errors += tm.Errors
				sum[comp][i].Dropped += tm.Dropped
			}
		}
	}
	return sum
}

// edgeReconcilesDistributed is edgeReconciles over the summed counters of
// all workers: emitted == executed + dropped on a cross-process edge.
func (rig *distRig) edgeReconciles(t *testing.T, up, down string) {
	t.Helper()
	var emitted, executed, dropped uint64
	for _, rt := range rig.rts {
		for _, ts := range rt.comps[up].tasks {
			emitted += ts.emitted.Load()
		}
		dc := rt.comps[down]
		for _, ts := range dc.tasks {
			executed += ts.executed.Load()
			dropped += ts.dropped.Load()
		}
		dropped += dc.dropped.Load()
	}
	if emitted != executed+dropped {
		t.Fatalf("edge %s→%s: emitted %d != executed %d + dropped %d", up, down, emitted, executed, dropped)
	}
}

// TestDistributedFigure8CountEquivalence splits the Figure-8 pipeline
// across two worker processes over TCP and asserts the run is count-
// equivalent to the in-process run: identical per-component executed/
// emitted/dropped totals, every edge reconciling on the summed counters,
// and both workers actually doing work (the split is real, not
// degenerate). Totals are compared per component, not per task: shuffle
// deliveries in distributed runs prefer same-worker tasks (local-or-
// shuffle, see runningComponent.localTasks), so the per-task split
// legitimately differs from the single-process round-robin.
func TestDistributedFigure8CountEquivalence(t *testing.T) {
	const n = 2000
	esper := func() Bolt { return &passBolt{} }
	sink := func() Bolt { return &funcBolt{exec: func(Tuple, Collector) error { return nil }} }

	topo, err := figure8(n, esper, sink).Build()
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Run(); err != nil {
		t.Fatal(err)
	}
	want := single.taskMetricsSnapshot()

	rig := newDistRig(t, 2, func(int) *TopologyBuilder { return figure8(n, esper, sink) })
	rig.run(t, 30*time.Second)
	for i, err := range rig.errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	got := rig.metrics()
	for comp, wantTasks := range want {
		gotTasks := got[comp]
		if len(gotTasks) != len(wantTasks) {
			t.Fatalf("%s: task count %d vs %d", comp, len(gotTasks), len(wantTasks))
		}
		var wantSum, gotSum taskMetrics
		for i := range wantTasks {
			wantSum.Executed += wantTasks[i].Executed
			wantSum.Emitted += wantTasks[i].Emitted
			wantSum.Dropped += wantTasks[i].Dropped
			gotSum.Executed += gotTasks[i].Executed
			gotSum.Emitted += gotTasks[i].Emitted
			gotSum.Dropped += gotTasks[i].Dropped
		}
		if gotSum.Executed != wantSum.Executed ||
			gotSum.Emitted != wantSum.Emitted ||
			gotSum.Dropped != wantSum.Dropped {
			t.Errorf("%s: distributed totals %+v, single-process totals %+v",
				comp, gotSum, wantSum)
		}
	}
	chain := []string{"busreader", "preprocess", "areatracker", "busstops", "splitter", "esper", "storer"}
	for i := 0; i < len(chain)-1; i++ {
		rig.edgeReconciles(t, chain[i], chain[i+1])
	}
	for w, rt := range rig.rts {
		var executed uint64
		for _, tasks := range rt.taskMetricsSnapshot() {
			for _, tm := range tasks {
				executed += tm.Executed
			}
		}
		if executed == 0 {
			t.Errorf("worker %d executed nothing — topology was not split", w)
		}
	}
}

// shippedFigure8 is the Figure 8 topology in the shape core's topology.xml
// declares it — single-executor PreProcess, Splitter and EventsStorer, two
// AreaTracker and BusStopsTracker executors, four engines fed direct on the
// Splitter's "routed" stream — with pass-through bolts. The Splitter routes
// by key, as the routing table routes by location.
func shippedFigure8(n int) *TopologyBuilder {
	pass := func() Bolt { return &passBolt{} }
	splitter := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, col Collector) error {
			col.EmitDirect("routed", tp.Values["key"].(int)%4, tp.Values)
			return nil
		}}
	}
	b := NewTopologyBuilder("figure8")
	b.SetSpout("BusReader", func() Spout { return &seqSpout{n: n, keys: 16} }, 1, 1)
	b.SetBolt("PreProcess", pass, 1, 1).FieldsGrouping("BusReader", "key")
	b.SetBolt("AreaTracker", pass, 2, 2).ShuffleGrouping("PreProcess")
	b.SetBolt("BusStopsTracker", pass, 2, 2).ShuffleGrouping("AreaTracker")
	b.SetBolt("Splitter", splitter, 1, 1).ShuffleGrouping("BusStopsTracker")
	b.SetBolt("EsperBolt", pass, 4, 4).StreamGrouping("Splitter", "routed", DirectGrouping)
	b.SetBolt("EventsStorer", nopBolt, 1, 1).ShuffleGrouping("EsperBolt")
	return b
}

// TestDistributedPlacementFollowsFlow: on the shipped Figure 8 shape at
// 2, 3 and 4 workers, placement puts the Splitter on PreProcess's worker,
// where local-or-shuffle keeps the enriched rows, and every multi-executor
// component still spreads its executors over distinct workers.
func TestDistributedPlacementFollowsFlow(t *testing.T) {
	topo, err := shippedFigure8(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4} {
		peers := make([]string, workers)
		for i := range peers {
			peers[i] = fmt.Sprintf("127.0.0.1:%d", i+1)
		}
		rt, err := New(topo, WithWorker(0, peers))
		if err != nil {
			t.Fatal(err)
		}
		on := map[string]map[int]bool{}
		for _, p := range rt.Placements() {
			if on[p.Component] == nil {
				on[p.Component] = map[int]bool{}
			}
			on[p.Component][p.Worker] = true
		}
		pre, split := on["PreProcess"], on["Splitter"]
		for w := range split {
			if !pre[w] {
				t.Errorf("%d workers: Splitter on worker %d, PreProcess on %v", workers, w, pre)
			}
		}
		for comp, n := range map[string]int{"AreaTracker": 2, "BusStopsTracker": 2, "EsperBolt": 4} {
			if got := len(on[comp]); got != min(n, workers) {
				t.Errorf("%d workers: %s spans %d workers, want %d", workers, comp, got, min(n, workers))
			}
		}
	}
}

// TestDistributedFigure8RowsCrossOnce runs the shipped Figure 8 shape over
// two workers and counts the envelopes each worker writes to its peer per
// destination component: nothing crosses into the Splitter or the
// enrichment chain, rows cross only to the engines on the other worker —
// at most once each — and the run is still split across both workers.
func TestDistributedFigure8RowsCrossOnce(t *testing.T) {
	const n = 2000
	rig := newDistRig(t, 2, func(int) *TopologyBuilder { return shippedFigure8(n) })
	rig.run(t, 30*time.Second)
	for i, err := range rig.errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	crossed := map[string]uint64{}
	for _, rt := range rig.rts {
		for id, rc := range rt.comps {
			crossed[id] += rc.wireIn.Load()
		}
	}
	for _, comp := range []string{"PreProcess", "AreaTracker", "BusStopsTracker", "Splitter"} {
		if crossed[comp] != 0 {
			t.Errorf("%d envelopes crossed into %s, want 0", crossed[comp], comp)
		}
	}
	// Keys spread evenly over the four engines, two on each worker.
	if got := crossed["EsperBolt"]; got == 0 || got > n/2 {
		t.Errorf("%d rows crossed to EsperBolt, want 1..%d", got, n/2)
	}
	if got := rig.metrics()["EventsStorer"][0].Executed; got != n {
		t.Errorf("EventsStorer executed %d, want %d", got, n)
	}
}

// TestDistributedAnchoredReplayOverTCP pins the cross-worker reliability
// path: anchored roots live on worker 0, the failing bolt on worker 1, so
// every attempt crosses the wire, every failure travels back as an
// ackResult, and the replay is re-sent over TCP. Every message id must be
// acked after its transient failure — with an intact payload: the decoded
// values a replayed execution sees must match what was emitted, proving
// decode copied them out of the (long since reused) receive buffer.
func TestDistributedAnchoredReplayOverTCP(t *testing.T) {
	const n = 20
	spout := newAckSpout(n)
	var mu sync.Mutex
	attempts := map[int]int{}
	badPayload := []string{}
	flaky := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, _ Collector) error {
			i, ok := tp.Values["i"].(int)
			key, kok := tp.Values["key"].(int)
			if !ok || !kok || key != i%4 {
				mu.Lock()
				badPayload = append(badPayload, fmt.Sprintf("%#v", tp.Values))
				mu.Unlock()
				return nil
			}
			mu.Lock()
			attempts[i]++
			first := attempts[i] == 1
			mu.Unlock()
			if first {
				return fmt.Errorf("transient failure")
			}
			return nil
		}}
	}
	// A fields-grouped two-executor fan in front of flaky emits on both
	// workers, so flaky keeps its block slot on worker 1 while src stays on
	// worker 0: a tuple fanned out on worker 0 crosses on fan → flaky, one
	// fanned out on worker 1 crossed on src → fan.
	build := func(int) *TopologyBuilder {
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return spout }, 1, 1)
		b.SetBolt("fan", func() Bolt { return &passBolt{} }, 2, 2).FieldsGrouping("src", "i")
		b.SetBolt("flaky", flaky, 1, 1).ShuffleGrouping("fan")
		return b
	}
	rig := newDistRig(t, 2, build,
		WithAckTimeout(50*time.Millisecond),
		WithMaxRetries(5),
		WithFailurePolicy(Degrade),
		withQuarantineAfter(1000),
	)
	for _, p := range rig.rts[0].Placements() {
		if want := map[string]int{"src": 0, "fan": p.TaskIndex, "flaky": 1}[p.Component]; p.Worker != want {
			t.Fatalf("%s task %d placed on worker %d, the test needs %d", p.Component, p.TaskIndex, p.Worker, want)
		}
	}
	rig.run(t, 30*time.Second)
	for i, err := range rig.errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if len(badPayload) > 0 {
		t.Fatalf("corrupt payloads over the wire: %v", badPayload)
	}
	spout.mu.Lock()
	defer spout.mu.Unlock()
	if len(spout.acked) != n || len(spout.failed) != 0 {
		t.Fatalf("acked %d failed %d, want %d and 0", len(spout.acked), len(spout.failed), n)
	}
	for i := 0; i < n; i++ {
		if attempts[i] < 2 {
			t.Errorf("tuple %d executed %d times, want ≥ 2 (fail + replay)", i, attempts[i])
		}
		if spout.acked[strconv.Itoa(i)] != 1 {
			t.Errorf("msg %d acked %d times, want exactly 1", i, spout.acked[strconv.Itoa(i)])
		}
	}
	// The replay really crossed the wire: worker 0 counts them.
	if replays := rig.rts[0].FaultTotals().Replays; replays < n {
		t.Errorf("replays = %d, want ≥ %d", replays, n)
	}
}

// gatedSpout emits n tuples then idles until released, keeping the run —
// and its transport — alive while a test acts on it.
type gatedSpout struct {
	n, i    int
	release chan struct{}
}

func (s *gatedSpout) Open(TaskContext) error { return nil }
func (s *gatedSpout) Close() error           { return nil }
func (s *gatedSpout) NextTuple(col Collector) (bool, error) {
	if s.i < s.n {
		col.Emit(map[string]any{"i": s.i})
		s.i++
		return true, nil
	}
	select {
	case <-s.release:
		return false, nil
	case <-time.After(time.Millisecond):
		return true, nil
	}
}

// TestDistributedLateWorkerJoins: worker 0 only sends (its share is a
// spout task) and is done long before worker 1 starts. It must keep its
// listener up until worker 1's executors have exited too, so the late
// worker still dials in and drains the whole stream instead of failing on
// a closed peer.
func TestDistributedLateWorkerJoins(t *testing.T) {
	const n = 200
	var got atomic.Int64
	// Two spout executors emit on both workers, so the sink keeps its block
	// slot on worker 1 and spout task 0's tuples all cross the wire.
	build := func(int) *TopologyBuilder {
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return &seqSpout{n: n, keys: 1} }, 2, 2)
		b.SetBolt("sink", func() Bolt {
			return &funcBolt{exec: func(Tuple, Collector) error { got.Add(1); return nil }}
		}, 1, 1).ShuffleGrouping("src")
		return b
	}
	rig := newDistRig(t, 2, build)
	for _, p := range rig.rts[0].Placements() {
		if want := map[string]int{"src": p.TaskIndex, "sink": 1}[p.Component]; p.Worker != want {
			t.Fatalf("%s task %d placed on worker %d, the test needs %d", p.Component, p.TaskIndex, p.Worker, want)
		}
	}
	errs := make(chan error, 2)
	go func() { errs <- rig.rts[0].Run() }()
	time.Sleep(200 * time.Millisecond) // worker 0 has emitted everything by now
	go func() { errs <- rig.rts[1].Run() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("distributed run did not drain")
		}
	}
	if got.Load() != 2*n {
		t.Fatalf("sink executed %d tuples, want %d", got.Load(), 2*n)
	}
}

// TestDistributedHeartbeatHeadroomUnderFullQueue pins the heartbeat
// headroom band of trySendSmall: a peer whose queue sits at the data
// bound (data enqueues blocked on backpressure) must still accept
// heartbeats — skipping them for 4+ intervals makes the remote's read
// deadline declare this worker dead in the middle of a healthy, merely
// congested, run. Only a queue overfull into the band itself drops.
func TestDistributedHeartbeatHeadroomUnderFullQueue(t *testing.T) {
	p := &tcpPeer{}
	p.cond = sync.NewCond(&p.mu)

	p.qBytes = peerQueueBytes // exactly at the data bound: band available
	p.trySendSmall(appendHeartbeatFrame)
	if len(p.frames) != 1 {
		t.Fatalf("full-queue heartbeat: %d frames queued, want 1 (headroom band must admit it)", len(p.frames))
	}
	p.qBytes = peerQueueBytes + peerCtrlHeadroom // band exhausted: drop
	p.trySendSmall(appendHeartbeatFrame)
	if len(p.frames) != 1 {
		t.Fatalf("overfull-queue heartbeat: %d frames queued, want still 1 (band exhausted must drop)", len(p.frames))
	}
	// closing and dead peers drop regardless of headroom.
	p.qBytes = 0
	p.closing = true
	p.trySendSmall(appendHeartbeatFrame)
	if len(p.frames) != 1 {
		t.Fatalf("closing peer accepted a heartbeat: %d frames", len(p.frames))
	}
}

// TestDistributedHeartbeatSurvivesBackpressureSoak shrinks the per-peer
// queue bound to a few KB and runs a cross-worker pipeline whose sink is
// slower than its source, so the sender's queue sits pinned at the bound
// for many heartbeat intervals. With heartbeats riding the headroom band
// the run must drain cleanly — no worker declared dead, no tuple lost.
func TestDistributedHeartbeatSurvivesBackpressureSoak(t *testing.T) {
	oldQueue := peerQueueBytes
	peerQueueBytes = 4 << 10
	defer func() { peerQueueBytes = oldQueue }()

	const n = 1500
	var delivered atomic.Uint64
	slowSink := func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error {
			if delivered.Add(1)%16 == 0 {
				time.Sleep(time.Millisecond) // sustained consumer lag
			}
			return nil
		}}
	}
	build := func(int) *TopologyBuilder {
		b := NewTopologyBuilder("soak")
		b.SetSpout("src", func() Spout { return &seqSpout{n: n, keys: 8} }, 1, 1)
		b.SetBolt("sink", slowSink, 2, 2).FieldsGrouping("src", "key")
		return b
	}
	rig := newDistRig(t, 2, build, WithHeartbeat(20*time.Millisecond), WithBatchSize(16))
	rig.run(t, 60*time.Second)
	for i, err := range rig.errs {
		if err != nil {
			t.Fatalf("worker %d: %v (peer declared dead under backpressure?)", i, err)
		}
	}
	if got := delivered.Load(); got != n {
		t.Fatalf("sink executed %d tuples, want %d", got, n)
	}
	rig.edgeReconciles(t, "src", "sink")
}

// TestDistributedRejectsFramesOffPlacement: an inbound batch frame is
// checked against the placement before delivery. A frame addressing a task
// its executor does not have, or addressing a spout executor, fails the
// link like any other malformed frame.
func TestDistributedRejectsFramesOffPlacement(t *testing.T) {
	for _, tc := range []struct {
		name, why  string
		eid, local int
	}{
		{"taskOutOfRange", "frame for task 5 of executor 1", 1, 5}, // the sink executor on worker 0 has one task
		{"spout", "not a bolt executor", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := appendBatchFrame(nil, tc.eid, []envelope{{local: tc.local, tuple: Tuple{Stream: DefaultStream}}})
			if err != nil {
				t.Fatal(err)
			}
			rejectsFrame(t, frame, tc.why, func(rt *Runtime) {
				if ex := rt.execs[tc.eid]; ex.worker != 0 || len(ex.tasks) != 1 {
					t.Fatalf("executor %d: worker %d with %d tasks, the test needs worker 0 with 1", tc.eid, ex.worker, len(ex.tasks))
				}
			}, nil)
		})
	}
}

// TestDistributedRejectsStrayEpochFrames: an epoch frame at a worker
// running without epoch mode, an epoch message of unknown kind, and a frame
// of the reserved type 8 (the retired control request, in its old layout)
// each fail the link.
func TestDistributedRejectsStrayEpochFrames(t *testing.T) {
	// Worker 1 never reports, so each epoch stalls until its commit timeout;
	// the one-abort cap keeps the rest of the run short.
	epoch := []Option{WithAckTimeout(50 * time.Millisecond), WithMaxRetries(1), WithAckMode(AckEpoch), WithEpochInterval(5 * time.Millisecond)}
	for _, tc := range []struct {
		name, why string
		frame     []byte
		opts      []Option
	}{
		{"withoutEpochMode", "without epoch mode", appendEpochFrame(nil, epochMsg{kind: epochCommit, w: [3]uint64{1}}), nil},
		{"unknownKind", "unknown epoch message kind 99", appendEpochFrame(nil, epochMsg{kind: 99}), epoch},
		{"reservedType8", "unknown frame type 8", endFrame(appendWireString(append(beginFrame(nil, 8), 0, 1), "storm.epoch.begin")), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rejectsFrame(t, tc.frame, tc.why, nil, nil, tc.opts...)
		})
	}
}

// TestDistributedRejectsFramesTheOptionsCannotProduce: frames only a
// worker run with other options sends — an anchored envelope or an ackBatch
// frame at a worker without the XOR acker, a marker carrying an epoch at a
// worker without epoch mode — each fail the link instead of degrading or
// being delivered.
func TestDistributedRejectsFramesTheOptionsCannotProduce(t *testing.T) {
	anchored, err := appendBatchFrame(nil, 1, []envelope{{tuple: Tuple{Stream: DefaultStream, ack: 2, edge: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, why string
		frame     []byte
	}{
		{"anchoredWithoutAcker", "anchored envelope for executor 1 at worker 0, which runs without the XOR acker", anchored},
		{"ackBatchWithoutAcker", "ackBatch frame at worker 0, which runs without the XOR acker", appendAckBatchFrame(nil, []ackUpdate{{root: 2, xor: 7}})},
		{"epochMarkerWithoutEpochMode", "marker for epoch 5 at worker 0, which runs without epoch mode", appendMarkerFrame(nil, 1, 2, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rejectsFrame(t, tc.frame, tc.why, nil, nil)
		})
	}
}

// TestDistributedRejectsBadEndOfStream: an end marker on an edge that is
// not open from the sender — a duplicate end would finish the executor
// early — a marker with trailing bytes or with no mark, an ackBatch frame
// with trailing bytes or for a root another worker owns, and a done frame
// with a body each fail the link. A rejected ackBatch frame applies none
// of its updates: worker 0's acker holds no entry for its root.
func TestDistributedRejectsBadEndOfStream(t *testing.T) {
	trailing := func(frame []byte) []byte { return endFrame(append(frame, 0)) }
	acked := []Option{WithAckTimeout(time.Second)}
	for _, tc := range []struct {
		name, why string
		frame     []byte
		opts      []Option
		root      uint64 // the ackBatch frame's root, 0 for other frames
	}{
		// Worker 1's only executor, the second sink executor, feeds nothing.
		{"endBeyondFeeders", "marker from executor 2 to executor 1, which is not an open edge from worker 1", appendMarkerFrame(nil, 1, 2, markEnd), nil, 0},
		{"markerTrailingBytes", "1 trailing bytes after marker frame", trailing(appendMarkerFrame(nil, 1, 2, markEnd)), nil, 0},
		{"markerWithoutMark", "marker frame with mark 0", appendMarkerFrame(nil, 1, 2, 0), nil, 0},
		{"ackBatchTrailingBytes", "1 trailing bytes after ackBatch frame", trailing(appendAckBatchFrame(nil, []ackUpdate{{root: 2, xor: 7}})), acked, 2},
		{"ackBatchForeignRoot", "ackBatch frame at worker 0 for root 3, which worker 1 owns", appendAckBatchFrame(nil, []ackUpdate{{root: 3, xor: 7}}), acked, 3},
		{"doneWithBody", "done frame with a 1-byte body", endFrame(append(beginFrame(nil, frameDone), 0)), nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var unapplied func(*Runtime)
			if tc.root != 0 {
				unapplied = func(rt *Runtime) {
					if _, ok := rt.acker.lookup(tc.root); ok {
						t.Errorf("worker 0's acker holds an entry for root %d from the rejected frame", tc.root)
					}
				}
			}
			rejectsFrame(t, tc.frame, tc.why, func(rt *Runtime) {
				if ex := rt.execs[1]; ex.worker != 0 || ex.comp.spec.id != "sink" || rt.execs[2].worker != 1 {
					t.Fatal("the test needs executor 1 to be the sink's on worker 0, and the other sink executor alone on worker 1")
				}
			}, unapplied, tc.opts...)
		})
	}
}

// rejectsFrame plays worker 1 of a two-worker run whose worker 0 it starts
// (a spout task and one sink task; check inspects the runtime first when
// non-nil): it connects, says hello and sends frame, which must fail the
// link — worker 0 stays up, closes the connection, and Run reports the
// lost link, with why in the cause. after, when non-nil, inspects the
// runtime once the link failed, while the run is still up.
func rejectsFrame(t *testing.T, frame []byte, why string, check, after func(*Runtime), opts ...Option) {
	t.Helper()
	release := make(chan struct{})
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &gatedSpout{release: release} }, 1, 1)
	b.SetBolt("sink", func() Bolt { return &passBolt{} }, 2, 2).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var peers []string
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns = append(lns, ln)
		peers = append(peers, ln.Addr().String())
	}
	rt, err := New(topo, append([]Option{WithWorker(0, peers), WithListener(lns[0])}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if check != nil {
		check(rt)
	}
	ran := make(chan error, 1)
	go func() { ran <- rt.Run() }()

	conn, err := net.Dial("tcp", peers[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(appendHelloFrame(nil, 1), frame...)); err != nil {
		t.Fatal(err)
	}
	// Worker 0 writes nothing on this connection: a read ends when it
	// closes the link, or at the deadline, well inside the 4 s a silent
	// peer is given.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("worker 0 kept the link open after the frame")
	}
	if after != nil {
		after(rt)
	}
	close(release)
	select {
	case err := <-ran:
		if err == nil || !strings.Contains(err.Error(), "lost worker 1") || !strings.Contains(err.Error(), why) {
			t.Fatalf("Run = %v, want the lost link to worker 1 for %q", err, why)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker 0 did not finish")
	}
}

// TestDistributedEpochSurvivesPeerLoss: worker 1 of a two-worker epoch run
// declares worker 0 — the coordinator's worker — lost in mid-run, once
// commits are crossing the wire. Neither worker may wait out the lost
// peer: worker 1's messages to the coordinator fail at once, worker 0's
// coordinator sees its epochs stall and rewinds until the abort cap
// commits, and both Run calls return within 5 s.
func TestDistributedEpochSurvivesPeerLoss(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	reached := make(chan struct{}) // a tuple reached worker 1's sink
	build := func(w int) *TopologyBuilder {
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return &gatedSpout{n: 100, release: release} }, 1, 1)
		b.SetBolt("sink", func() Bolt {
			return &funcBolt{exec: func(Tuple, Collector) error {
				if w == 1 {
					once.Do(func() { close(reached) })
				}
				return nil
			}}
		}, 2, 2).FieldsGrouping("src", "i") // a shuffle would keep every tuple on worker 0
		return b
	}
	rig := newDistRig(t, 2, build, WithHeartbeat(20*time.Millisecond), WithAckTimeout(100*time.Millisecond),
		WithMaxRetries(1), WithAckMode(AckEpoch), WithEpochInterval(5*time.Millisecond))
	for _, p := range rig.rts[0].Placements() {
		if want := map[string]int{"src": 0, "sink": p.TaskIndex}[p.Component]; p.Worker != want {
			t.Fatalf("%s task %d placed on worker %d, the test needs %d", p.Component, p.TaskIndex, p.Worker, want)
		}
	}
	errs := make(chan error, 2)
	for _, rt := range rig.rts {
		go func() { errs <- rt.Run() }()
	}
	select {
	case <-reached:
	case <-time.After(5 * time.Second):
		t.Fatal("no tuple reached worker 1")
	}
	// The sink ran, so worker 1's links and coordinator state are set up.
	w1 := rig.rts[1]
	for deadline := time.Now().Add(5 * time.Second); w1.epochs.committed.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no commit reached worker 1")
		}
	}
	w1.links.peerLost(0, errors.New("injected"))
	close(release)
	timeout := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-errs:
		case <-timeout:
			t.Fatalf("%d of 2 workers returned within 5s of the loss", i)
		}
	}
}

// streamSpout emits until released.
type streamSpout struct {
	i       int
	release chan struct{}
}

func (s *streamSpout) Open(TaskContext) error { return nil }
func (s *streamSpout) Close() error           { return nil }
func (s *streamSpout) NextTuple(col Collector) (bool, error) {
	select {
	case <-s.release:
		return false, nil
	default:
	}
	col.Emit(map[string]any{"i": s.i})
	s.i++
	return true, nil
}

// TestDistributedPeerLossEndsStreams: worker 1 declares worker 0 lost while
// worker 0 streams into worker 1's sink. The reader that served worker 0
// ends the stream worker 0 still owes that sink, behind the last batch it
// delivered, so both Run calls return within 5 s, and worker 1's error
// names the lost worker.
func TestDistributedPeerLossEndsStreams(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	reached := make(chan struct{}) // a tuple reached worker 1's sink
	build := func(w int) *TopologyBuilder {
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return &streamSpout{release: release} }, 1, 1)
		b.SetBolt("sink", func() Bolt {
			return &funcBolt{exec: func(Tuple, Collector) error {
				if w == 1 {
					once.Do(func() { close(reached) })
				}
				return nil
			}}
		}, 2, 2).FieldsGrouping("src", "i")
		return b
	}
	rig := newDistRig(t, 2, build, WithHeartbeat(20*time.Millisecond))
	for _, p := range rig.rts[0].Placements() {
		if want := map[string]int{"src": 0, "sink": p.TaskIndex}[p.Component]; p.Worker != want {
			t.Fatalf("%s task %d placed on worker %d, the test needs %d", p.Component, p.TaskIndex, p.Worker, want)
		}
	}
	errs := make([]chan error, 2)
	for i, rt := range rig.rts {
		errs[i] = make(chan error, 1)
		go func() { errs[i] <- rt.Run() }()
	}
	select {
	case <-reached:
	case <-time.After(5 * time.Second):
		t.Fatal("no tuple reached worker 1")
	}
	rig.rts[1].links.peerLost(0, errors.New("injected"))
	close(release)
	timeout := time.After(5 * time.Second)
	for i := range errs {
		select {
		case err := <-errs[i]:
			if i == 1 && (err == nil || !strings.Contains(err.Error(), "lost worker 0")) {
				t.Errorf("worker 1: Run = %v, want the lost worker 0", err)
			}
		case <-timeout:
			t.Fatalf("worker %d did not return within 5s of the loss", i)
		}
	}
}

// TestDistributedPeerLossWithoutReader: worker 1 accepts worker 0's dial,
// never dials back, and goes away, while worker 0's sink executor is fed by
// worker 1's spout executor. No reader ever served worker 1, so declaring
// it lost ends that stream: worker 0's Run returns within 5 s and names the
// lost worker.
func TestDistributedPeerLossWithoutReader(t *testing.T) {
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 100, keys: 4} }, 2, 2)
	b.SetBolt("sink", func() Bolt { return &passBolt{} }, 2, 2).FieldsGrouping("src", "key")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var peers []string
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns = append(lns, ln)
		peers = append(peers, ln.Addr().String())
	}
	rt, err := New(topo, WithWorker(0, peers), WithListener(lns[0]), WithHeartbeat(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rt.Placements() {
		if want := map[string]int{"src": p.TaskIndex, "sink": 1 - p.TaskIndex}[p.Component]; p.Worker != want {
			t.Fatalf("%s task %d placed on worker %d, the test needs %d", p.Component, p.TaskIndex, p.Worker, want)
		}
	}
	ran := make(chan error, 1)
	go func() { ran <- rt.Run() }()
	conn, err := lns[1].Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, len(appendHelloFrame(nil, 0)))); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	lns[1].Close()
	select {
	case err := <-ran:
		if err == nil || !strings.Contains(err.Error(), "lost worker 1") {
			t.Fatalf("Run = %v, want the lost worker 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker 0 did not return within 5s of the loss")
	}
}
