package storm

// Epoch-based checkpointing (WithAckMode(AckEpoch)): the third reliability
// mode, replacing per-tuple tracking with aligned epoch barriers and
// per-epoch spout replay — Spark-Streaming-style micro-batch recovery.
//
// The protocol, end to end:
//
//   - The coordinator (a goroutine on worker 0) opens epoch N every
//     EpochInterval by broadcasting begin(N) on the control plane. One
//     epoch is in flight at a time.
//   - Every spout executor, between NextTuple calls, notices the new
//     epoch, snapshots each ReplayableSpout task's Checkpoint(), flushes
//     its output buffers and emits a barrier batch for N to every
//     downstream executor — local ones through the input channels, remote
//     ones as frameEpochBarrier on the per-peer FIFO queue, both from the
//     spout's own goroutine so the barrier trails every pre-barrier
//     envelope (the same FIFO argument producer-exit accounting relies on).
//   - A bolt executor holds barrier N until it has arrived from every
//     live upstream executor (counting alignment: envelopes from separate
//     inputs merge into one FIFO channel, so by the time the last copy of
//     the barrier is dequeued, every earlier delivery on every input has
//     been processed), then flushes its own output and forwards the
//     barrier downstream. An exiting executor sends an in-band retirement
//     notice carrying the last epoch it passed, exempting itself from the
//     alignment expectation of every later epoch.
//   - Each worker reports pass(N, lossDelta) to the coordinator once all
//     its local executors passed N; the delta is the growth of its fault
//     counters (drops, errors, panics) since its previous report, and any
//     loss of a pre-N tuple is counted on some worker strictly before
//     that worker's report (the losing executor processes its input
//     before aligning the barrier behind it).
//   - All workers reported with zero total loss: the coordinator commits
//     N — every tuple emitted at an offset at or before the epoch-N
//     checkpoints drained end to end — and broadcasts commit(N); workers
//     prune older checkpoints. Any loss (or a commit timeout, bounded by
//     AckTimeout): the coordinator broadcasts rewind to the last
//     committed epoch, every ReplayableSpout task Restores that
//     checkpoint, and emission replays forward. Epoch numbers are never
//     reused; after MaxRetries consecutive aborted epochs the coordinator
//     commits anyway (the same bounded-recovery escape hatch as the
//     acker's per-tuple retry cap), so a permanently lossy topology
//     degrades instead of livelocking.
//
// Replay re-emits every tuple after the committed checkpoint, so sinks
// see duplicates for the uncommitted suffix: effectively-once holds for
// idempotent sinks, and the per-tuple cost in steady state is one atomic
// load per NextTuple call — no edge ids, no checksum updates, no acker.
//
// A spout that exhausts its source does not exit immediately: it kicks
// the coordinator for a prompt epoch, keeps injecting barriers, and only
// exits once an epoch injected after its final tuple commits (a rewind
// instead reopens it). That way end-of-stream output is covered by the
// recovery guarantee, and the run's tail latency is a couple of control
// round-trips rather than a full interval.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Control-plane methods of the epoch protocol; dispatched by serveControl
// ahead of the onControl handler.
const epochMethodPrefix = "storm.epoch."

const (
	epochMethodBegin  = epochMethodPrefix + "begin"  // coordinator → all: open epoch N
	epochMethodPass   = epochMethodPrefix + "pass"   // worker → coordinator: all locals passed N
	epochMethodKick   = epochMethodPrefix + "kick"   // worker → coordinator: open an epoch now
	epochMethodCommit = epochMethodPrefix + "commit" // coordinator → all: N committed
	epochMethodRewind = epochMethodPrefix + "rewind" // coordinator → all: restore epoch T
)

// epochAlign is one bolt executor's barrier-alignment state, touched only
// on that executor's goroutine (barriers arrive as input batches).
type epochAlign struct {
	expect  int            // distinct upstream executors at start
	got     map[uint64]int // barrier arrivals per pending epoch
	retired []uint64       // lastPassed of upstream executors that exited
	passed  uint64         // highest epoch this executor aligned + forwarded
}

// exempt counts upstream executors that exited before passing epoch e and
// therefore will never send its barrier.
func (al *epochAlign) exempt(e uint64) int {
	n := 0
	for _, last := range al.retired {
		if last < e {
			n++
		}
	}
	return n
}

type epochMsg struct {
	method  string
	payload []byte
}

// epochCoordinator carries the per-worker agent state on every worker and
// the coordinator loop on worker 0.
type epochCoordinator struct {
	r        *Runtime
	interval time.Duration
	timeout  time.Duration // commit deadline per epoch (AckTimeout)
	workers  int
	leader   int

	// pending is the epoch spouts should inject next; committed the
	// highest committed epoch. rewindWord packs generation<<32|target so
	// spout executors observe both atomically. All three are read on the
	// spout hot path and written once per epoch.
	pending    atomic.Uint64
	committed  atomic.Uint64
	rewindWord atomic.Uint64

	// Static topology routing, identical on every worker: downstream
	// executors per component (targets deduped across streams) and the
	// matching distinct-upstream-executor expectation.
	down   map[*runningComponent][]*executor
	expect map[*runningComponent]int
	align  []*epochAlign // per eid; nil for spouts and remote executors

	// Per-worker agent bookkeeping: which local executors passed which
	// epoch, and the retirement exemptions.
	mu          sync.Mutex
	nLocal      int
	passCount   map[uint64]int
	retired     []uint64
	maxReported uint64
	lossBase    uint64

	outbox   chan epochMsg // agent → coordinator RPCs, off the data path
	leaderCh chan epochMsg // inbound pass/kick on worker 0
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

func newEpochCoordinator(r *Runtime) *epochCoordinator {
	workers := 1
	if r.cfg.peers != nil {
		workers = len(r.cfg.peers)
	}
	ec := &epochCoordinator{
		r:        r,
		interval: r.cfg.EpochInterval,
		timeout:  r.cfg.AckTimeout,
		workers:  workers,
		leader:   0,
		down:     make(map[*runningComponent][]*executor),
		expect:   make(map[*runningComponent]int),

		passCount: make(map[uint64]int),
		outbox:    make(chan epochMsg, 256),
		leaderCh:  make(chan epochMsg, 256),
		stopCh:    make(chan struct{}),
	}
	for _, id := range r.topo.order {
		rc := r.comps[id]
		seen := make(map[*runningComponent]bool)
		for _, subs := range rc.subs {
			for _, s := range subs {
				if !seen[s.target] {
					seen[s.target] = true
					ec.down[rc] = append(ec.down[rc], s.target.execs...)
				}
			}
		}
		srcSeen := make(map[string]bool)
		for _, g := range rc.spec.groupings {
			if !srcSeen[g.Source] {
				srcSeen[g.Source] = true
				ec.expect[rc] += len(r.comps[g.Source].execs)
			}
		}
	}
	ec.align = make([]*epochAlign, len(r.execs))
	for _, ex := range r.execs {
		if !r.localExec(ex) {
			continue
		}
		ec.nLocal++
		if !ex.comp.spec.isSpout {
			ec.align[ex.eid] = &epochAlign{
				expect: ec.expect[ex.comp],
				got:    make(map[uint64]int),
			}
		}
	}
	return ec
}

func (ec *epochCoordinator) start() {
	ec.wg.Add(1)
	go ec.agentLoop()
	if ec.r.cfg.peers == nil || ec.r.cfg.selfWorker == ec.leader {
		ec.wg.Add(1)
		go ec.coordinatorLoop()
	}
}

func (ec *epochCoordinator) stop() {
	close(ec.stopCh)
	ec.wg.Wait()
}

// --- wire helpers: payloads are fixed 8-byte big-endian words ---

func epochPayload(vals ...uint64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

func epochParse(b []byte, n int) ([]uint64, error) {
	if len(b) != 8*n {
		return nil, fmt.Errorf("storm: epoch payload is %d bytes, want %d", len(b), 8*n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(b[8*i:])
	}
	return out, nil
}

// serve handles one epoch-protocol control request on the serving worker.
// It runs on control-handler goroutines (or the caller inline for
// worker-local requests) and never blocks on the data plane.
func (ec *epochCoordinator) serve(method string, payload []byte) ([]byte, error) {
	switch method {
	case epochMethodBegin:
		v, err := epochParse(payload, 1)
		if err != nil {
			return nil, err
		}
		storeMax(&ec.pending, v[0])
		// A worker with no live local executors left (or none placed here
		// at all) passes every epoch trivially; everyone else reports as
		// its last local executor passes.
		ec.mu.Lock()
		rep := ec.evalLocked(v[0])
		ec.mu.Unlock()
		ec.send(rep)
		return nil, nil
	case epochMethodCommit:
		v, err := epochParse(payload, 1)
		if err != nil {
			return nil, err
		}
		storeMax(&ec.committed, v[0])
		return nil, nil
	case epochMethodRewind:
		v, err := epochParse(payload, 2) // generation, target
		if err != nil {
			return nil, err
		}
		ec.rewindWord.Store(v[0]<<32 | v[1]&0xffffffff)
		return nil, nil
	case epochMethodPass, epochMethodKick:
		select {
		case ec.leaderCh <- epochMsg{method: method, payload: payload}:
		case <-ec.stopCh:
		}
		return nil, nil
	}
	return nil, fmt.Errorf("storm: unknown epoch method %q", method)
}

func storeMax(a *atomic.Uint64, v uint64) {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// --- per-worker agent ---

// localPass records that one local executor passed epoch e; when the last
// live local executor passes, the worker reports to the coordinator.
func (ec *epochCoordinator) localPass(e uint64) {
	ec.mu.Lock()
	ec.passCount[e]++
	rep := ec.evalLocked(e)
	ec.mu.Unlock()
	ec.send(rep)
}

// retireLocal removes an exiting local executor from the worker's pass
// expectation (it passed every epoch up to lastPassed and will pass none
// after).
func (ec *epochCoordinator) retireLocal(lastPassed uint64) {
	var reps []epochMsg
	ec.mu.Lock()
	ec.retired = append(ec.retired, lastPassed)
	for e := range ec.passCount {
		if rep := ec.evalLocked(e); rep.method != "" {
			reps = append(reps, rep)
		}
	}
	if rep := ec.evalLocked(ec.pending.Load()); rep.method != "" {
		reps = append(reps, rep)
	}
	ec.mu.Unlock()
	for _, rep := range reps {
		ec.send(rep)
	}
}

// evalLocked decides whether epoch e is fully passed on this worker and,
// if so, builds the pass report (sent by the caller after unlocking). The
// loss delta is the growth of this worker's fault counters since its
// previous report: every way a pre-barrier tuple can vanish (routing
// drop, task error, panic, quarantine skip) increments a counter on the
// losing worker before that worker's last executor passes the barrier
// behind the tuple.
func (ec *epochCoordinator) evalLocked(e uint64) epochMsg {
	if e == 0 || e <= ec.maxReported {
		return epochMsg{}
	}
	exempt := 0
	for _, last := range ec.retired {
		if last < e {
			exempt++
		}
	}
	if ec.passCount[e]+exempt < ec.nLocal {
		return epochMsg{}
	}
	for k := range ec.passCount {
		if k <= e {
			delete(ec.passCount, k)
		}
	}
	ec.maxReported = e
	loss := ec.r.epochLossSum()
	delta := loss - ec.lossBase
	ec.lossBase = loss
	return epochMsg{
		method:  epochMethodPass,
		payload: epochPayload(uint64(ec.r.cfg.selfWorker), e, delta),
	}
}

// send queues one agent→coordinator RPC; the agent goroutine performs the
// blocking control call so executor goroutines never wait on the control
// plane.
func (ec *epochCoordinator) send(m epochMsg) {
	if m.method == "" {
		return
	}
	select {
	case ec.outbox <- m:
	case <-ec.stopCh:
	}
}

// requestKick asks the coordinator to open an epoch immediately (an
// exhausted spout wants its final barrier committed without waiting out
// the interval).
func (ec *epochCoordinator) requestKick() {
	ec.send(epochMsg{method: epochMethodKick, payload: epochPayload()})
}

func (ec *epochCoordinator) agentLoop() {
	defer ec.wg.Done()
	for {
		select {
		case m := <-ec.outbox:
			ec.call(ec.leader, m.method, m.payload)
		case <-ec.stopCh:
			return
		}
	}
}

// call performs one control RPC, abandoning the wait when the coordinator
// shuts down: at run teardown a peer's transport may already be closed,
// and parking stop() behind the full RPC timeout would stall every
// shutdown. The detached sender finishes (or errors) on its own; errors
// are not actionable either way — a dead coordinator stalls the epoch and
// the commit timeout turns that into a rewind.
func (ec *epochCoordinator) call(w int, method string, payload []byte) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = ec.r.control(w, method, payload)
	}()
	select {
	case <-done:
	case <-ec.stopCh:
	}
}

// epochLossSum totals every counter that records a vanished or failed
// tuple. Only deltas between pass reports matter, so double counting
// across counters (a panic also counts as a task error) is harmless — the
// sum is zero exactly when nothing was lost.
func (r *Runtime) epochLossSum() uint64 {
	var n uint64
	for _, rc := range r.comps {
		n += rc.panics.Load() + rc.dropped.Load() + rc.expired.Load() + rc.missingField.Load()
		for _, ts := range rc.tasks {
			n += ts.dropped.Load() + ts.errors.Load()
		}
	}
	return n
}

// --- coordinator (worker 0) ---

func (ec *epochCoordinator) coordinatorLoop() {
	defer ec.wg.Done()
	var (
		next          = uint64(1)
		inflight      uint64 // 0 = none
		started       time.Time
		got           map[uint64]bool // workers reported for inflight
		loss          uint64
		lastCommitted uint64
		rewindGen     uint64
		consecAborts  int
		kicked        bool
	)
	begin := func() {
		inflight = next
		next++
		started = time.Now()
		got = make(map[uint64]bool)
		loss = 0
		kicked = false
		ec.broadcast(epochMethodBegin, epochPayload(inflight))
	}
	resolve := func(commit bool) {
		if commit {
			lastCommitted = inflight
			consecAborts = 0
			ec.broadcast(epochMethodCommit, epochPayload(lastCommitted))
		} else {
			consecAborts++
			rewindGen++
			ec.broadcast(epochMethodRewind, epochPayload(rewindGen, lastCommitted))
		}
		inflight = 0
		if kicked {
			begin()
		}
	}
	tick := time.NewTicker(ec.interval)
	defer tick.Stop()
	for {
		select {
		case <-ec.stopCh:
			return
		case <-tick.C:
			if inflight == 0 {
				begin()
			} else if time.Since(started) > ec.timeout {
				// A barrier is wedged (backpressure, a lost worker): give
				// up on this epoch and rewind so the spouts make forward
				// progress from the last committed state. The abort cap
				// applies here too — a permanently absent worker must not
				// rewind the topology forever.
				resolve(consecAborts >= ec.r.cfg.MaxRetries)
			}
		case m := <-ec.leaderCh:
			switch m.method {
			case epochMethodKick:
				if inflight == 0 {
					begin()
				} else {
					kicked = true
				}
			case epochMethodPass:
				v, err := epochParse(m.payload, 3) // worker, epoch, loss
				if err != nil || v[1] != inflight || got[v[0]] {
					continue
				}
				got[v[0]] = true
				loss += v[2]
				if len(got) == ec.workers {
					// Zero loss commits. Past MaxRetries consecutive
					// aborts the epoch commits anyway: replay cannot fix
					// a deterministic loss (a quarantined task, a
					// poisoned tuple), and an unbounded rewind loop would
					// never let the topology drain.
					resolve(loss == 0 || consecAborts >= ec.r.cfg.MaxRetries)
				}
			}
		}
	}
}

// broadcast sends one coordinator decision to every worker, self included
// (worker-local requests dispatch inline through serveControl).
func (ec *epochCoordinator) broadcast(method string, payload []byte) {
	for w := 0; w < ec.workers; w++ {
		ec.call(w, method, payload)
	}
}

// --- barrier flow ---

// forward emits one barrier (or retirement notice) from comp to every
// downstream executor. MUST run on the emitting executor's goroutine with
// its output buffers flushed: per-channel and per-peer FIFO is what makes
// a barrier prove every earlier envelope is ahead of it.
func (ec *epochCoordinator) forward(comp *runningComponent, val uint64, retire bool) {
	r := ec.r
	for _, dest := range ec.down[comp] {
		if r.localExec(dest) {
			b := r.getBatch()
			b.epoch = val
			b.epochRetire = retire
			dest.deliver(b)
			continue
		}
		if p := r.links.peers[dest.worker]; p != nil {
			eid := dest.eid
			_ = p.sendSmall(func(b []byte) []byte {
				return appendEpochBarrierFrame(b, eid, val, retire)
			})
		}
	}
}

// onBarrier handles one barrier/retire batch dequeued by a bolt executor:
// count it, and pass every epoch whose alignment just completed (flush
// own output first, forward the barrier, report the local pass).
func (ec *epochCoordinator) onBarrier(ex *executor, out *outBatcher, val uint64, retire bool) {
	al := ec.align[ex.eid]
	if al == nil {
		return
	}
	if retire {
		al.retired = append(al.retired, val)
	} else {
		if val <= al.passed {
			return // stale duplicate of an already-passed epoch
		}
		al.got[val]++
	}
	for {
		// Pass completable epochs in ascending order. Completion can skip
		// an epoch only when that epoch was aborted before some upstream
		// injected it — a complete epoch implies every live upstream
		// passed it, so none of them can still owe an earlier barrier.
		best := uint64(0)
		for e, n := range al.got {
			if e <= al.passed {
				delete(al.got, e)
				continue
			}
			if n+al.exempt(e) >= al.expect && (best == 0 || e < best) {
				best = e
			}
		}
		if best == 0 {
			return
		}
		al.passed = best
		for e := range al.got {
			if e <= best {
				delete(al.got, e)
			}
		}
		out.flushAll()
		ec.forward(ex.comp, best, false)
		ec.localPass(best)
	}
}

// retireExec sends an executor's in-band retirement downstream and drops
// it from the worker's pass expectation. Runs on the executor's goroutine
// after its final flush, before its EOF broadcast.
func (ec *epochCoordinator) retireExec(ex *executor, lastPassed uint64) {
	ec.forward(ex.comp, lastPassed, true)
	ec.retireLocal(lastPassed)
}

// --- the epoch-mode spout executor ---

// runEpochSpoutExecutor is runSpoutExecutor's epoch-mode counterpart: the
// same round-robin NextTuple drive and panic isolation, plus barrier
// injection between calls, checkpoint/restore bookkeeping, and the
// exhaustion protocol (park instead of close, exit on the commit of a
// post-final-tuple epoch). The per-tuple overhead over the plain loop is
// two atomic loads.
func (r *Runtime) runEpochSpoutExecutor(rc *runningComponent, ex *executor) {
	ec := r.epochs
	out := r.newOutBatcher()
	col := &taskCollector{r: r, rc: rc, out: out, root: r.tracing}

	n := len(ex.tasks)
	active := make([]bool, n)
	parked := make([]bool, n) // exhausted but reopenable by a rewind
	closed := make([]bool, n) // failed for real: never restored
	replayable := make([]ReplayableSpout, n)
	snaps := make([]map[uint64][]byte, n)
	nActive, nParked := 0, 0

	for i, ts := range ex.tasks {
		if err := r.spoutOpen(rc, ts); err != nil {
			r.taskFailed(rc, ts, fmt.Errorf("storm: spout %s task %d open: %w", rc.spec.id, ts.ctx.TaskID, err))
			closed[i] = true
			continue
		}
		active[i] = true
		nActive++
		if rp, ok := ts.spout.(ReplayableSpout); ok {
			replayable[i] = rp
			// Epoch 0 is the initial state: a rewind before the first
			// commit replays the whole stream.
			snaps[i] = map[uint64][]byte{0: rp.Checkpoint()}
		}
	}

	closeHard := func(i int, ts *taskState) {
		active[i] = false
		closed[i] = true
		nActive--
		if err := r.spoutClose(rc, ts); err != nil {
			r.taskFailed(rc, ts, fmt.Errorf("storm: spout %s task %d close: %w", rc.spec.id, ts.ctx.TaskID, err))
		}
	}
	park := func(i int) {
		active[i] = false
		parked[i] = true
		nActive--
		nParked++
		if nActive == 0 && nParked > 0 {
			// Source drained: ask for a prompt epoch so the tail commits
			// in control-RTT time instead of waiting out the interval.
			ec.requestKick()
		}
	}

	var (
		injected  uint64 // last epoch this executor injected
		exitEpoch uint64 // first epoch injected with every task parked
		lastGen   uint64 // rewind generation already applied
	)
	inject := func(e uint64) {
		out.flushAll()
		c := ec.committed.Load()
		for i := range ex.tasks {
			if replayable[i] == nil || closed[i] {
				continue
			}
			snaps[i][e] = replayable[i].Checkpoint()
			for k := range snaps[i] {
				if k < c && k < e {
					delete(snaps[i], k)
				}
			}
		}
		ec.forward(rc, e, false)
		ec.localPass(e)
		injected = e
		if nActive == 0 && exitEpoch == 0 {
			exitEpoch = e
		}
	}
	// sync applies coordinator state between NextTuple calls: rewinds
	// first (a restore must precede the next barrier's checkpoint), then
	// barrier injection, then the exhausted-executor exit check.
	sync := func() (exit bool) {
		if w := ec.rewindWord.Load(); w>>32 != lastGen {
			lastGen = w >> 32
			target := w & 0xffffffff
			for i := range ex.tasks {
				if replayable[i] == nil || closed[i] {
					continue
				}
				if snap, ok := snaps[i][target]; ok {
					replayable[i].Restore(snap)
				}
				for k := range snaps[i] {
					if k > target {
						delete(snaps[i], k) // aborted-epoch positions: stale after the rewind
					}
				}
				if parked[i] {
					parked[i] = false
					nParked--
					active[i] = true
					nActive++
				}
			}
			exitEpoch = 0
		}
		if p := ec.pending.Load(); p > injected {
			inject(p)
		}
		return nActive == 0 && exitEpoch != 0 && ec.committed.Load() >= exitEpoch
	}
	// callNext isolates one NextTuple call; the open-coded defer costs
	// ~1ns against a per-tuple budget of hundreds.
	callNext := func(ts *taskState) (more bool, err error, panicked bool) {
		defer func() {
			if p := recover(); p != nil {
				err = r.panicErr(rc, ts, "NextTuple", p)
				panicked = true
			}
		}()
		more, err = ts.spout.NextTuple(col)
		return
	}

	now := time.Now()
	for !r.canceled() {
		if nActive == 0 {
			if nParked == 0 {
				break // every task failed hard: nothing a rewind could reopen
			}
			if sync() {
				break // a post-final-tuple epoch committed: done for good
			}
			select {
			case <-r.done:
			case <-time.After(time.Millisecond):
			}
			continue
		}
		for i, ts := range ex.tasks {
			if !active[i] {
				continue
			}
			start := now
			col.ts = ts
			col.start = start
			if r.tracing {
				col.nowNanos = start.UnixNano()
			}
			more, err, panicked := callNext(ts)
			now = time.Now()
			ts.procNanos.Add(uint64(now.Sub(start)))
			out.maybeFlush(now)
			switch {
			case err != nil:
				wrapped := fmt.Errorf("storm: spout %s task %d: %w", rc.spec.id, ts.ctx.TaskID, err)
				if quarantined := r.taskFailed(rc, ts, wrapped); quarantined || r.policy != Degrade {
					closeHard(i, ts)
				} else if panicked {
					// Degrade keeps polling a panicking source until
					// quarantine, mirroring runSpoutExecutor.
				}
			case !more:
				ts.executed.Add(1)
				ts.consecErr = 0
				park(i)
			default:
				ts.executed.Add(1)
				ts.consecErr = 0
			}
			sync()
		}
	}

	// Cancelled, committed out, or failed out: close surviving tasks and
	// retire in-band behind the final flush.
	for i, ts := range ex.tasks {
		if active[i] || parked[i] {
			if err := r.spoutClose(rc, ts); err != nil {
				r.taskFailed(rc, ts, fmt.Errorf("storm: spout %s task %d close: %w", rc.spec.id, ts.ctx.TaskID, err))
			}
		}
	}
	out.flushAll()
	ec.retireExec(ex, injected)
}
