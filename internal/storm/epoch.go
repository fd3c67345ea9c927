package storm

// Epoch-based checkpointing (WithAckMode(AckEpoch)): the third reliability
// mode, replacing per-tuple tracking with aligned epoch barriers and
// per-epoch spout replay — Spark-Streaming-style micro-batch recovery.
//
// The protocol, end to end:
//
//   - The coordinator (a goroutine on worker 0) opens epoch N every
//     EpochInterval by broadcasting begin(N). One epoch is in flight at a
//     time. Every protocol message is one-way: applied inline on its own
//     worker, and sent as an epoch frame on the per-peer FIFO queue to any
//     other, so one sender's messages are applied in send order.
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
// recovery guarantee, and the run's tail latency is a couple of message
// hops rather than a full interval.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Epoch message kinds, with the words each carries.
const (
	epochBegin  byte = iota + 1 // coordinator → all: open epoch w[0]
	epochPass                   // worker → coordinator: worker w[0] passed epoch w[1], counting w[2] losses
	epochKick                   // worker → coordinator: open an epoch now
	epochCommit                 // coordinator → all: epoch w[0] committed
	epochRewind                 // coordinator → all: rewind generation w[0], restore epoch w[1]
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

// epochMsg is one message of the epoch protocol: a kind and up to three
// words. No message has a reply.
type epochMsg struct {
	kind byte
	w    [3]uint64
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

	outbox   chan epochMsg // agent → coordinator messages, off the data path
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

// apply handles one epoch message on this worker: inline on the sender's
// goroutine when it was sent here, on the peer reader when it came over
// the wire. It never waits on the coordinator or on a send — it stores
// atomics or hands off to a buffered channel — so a reader applying it
// keeps draining its connection. A message only the coordinator may
// receive fails on any other worker.
func (ec *epochCoordinator) apply(m epochMsg) error {
	switch m.kind {
	case epochBegin:
		storeMax(&ec.pending, m.w[0])
		// A worker with no live local executors left (or none placed here
		// at all) passes every epoch trivially; everyone else reports as
		// its last local executor passes.
		ec.mu.Lock()
		rep := ec.evalLocked(m.w[0])
		ec.mu.Unlock()
		ec.send(rep)
	case epochCommit:
		storeMax(&ec.committed, m.w[0])
	case epochRewind:
		ec.rewindWord.Store(m.w[0]<<32 | m.w[1]&0xffffffff)
	case epochPass, epochKick:
		if ec.r.cfg.selfWorker != ec.leader {
			return fmt.Errorf("storm: epoch message %d for the coordinator at worker %d", m.kind, ec.r.cfg.selfWorker)
		}
		select {
		case ec.leaderCh <- m:
		case <-ec.stopCh:
		}
	default:
		return fmt.Errorf("storm: unknown epoch message kind %d", m.kind)
	}
	return nil
}

// deliver sends m to worker w: applied inline when w is this worker,
// queued as an epoch frame on w's FIFO peer queue otherwise. A send to a
// lost peer fails at once and the message is dropped: the epoch it belongs
// to stalls, and the commit timeout turns that into a rewind.
func (ec *epochCoordinator) deliver(w int, m epochMsg) {
	r := ec.r
	if r.links == nil || w == r.cfg.selfWorker {
		_ = ec.apply(m) // cannot fail: the kinds are ours, and only the coordinator's worker is sent pass and kick
		return
	}
	if p := r.links.peers[w]; p != nil {
		_ = p.sendSmall(func(b []byte) []byte { return appendEpochFrame(b, m) })
	}
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
		if rep := ec.evalLocked(e); rep.kind != 0 {
			reps = append(reps, rep)
		}
	}
	if rep := ec.evalLocked(ec.pending.Load()); rep.kind != 0 {
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
	return epochMsg{kind: epochPass, w: [3]uint64{uint64(ec.r.cfg.selfWorker), e, delta}}
}

// send queues one agent→coordinator message; the agent goroutine delivers
// it, so neither executors nor peer readers wait on a peer queue.
func (ec *epochCoordinator) send(m epochMsg) {
	if m.kind == 0 {
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
	ec.send(epochMsg{kind: epochKick})
}

func (ec *epochCoordinator) agentLoop() {
	defer ec.wg.Done()
	for {
		select {
		case m := <-ec.outbox:
			ec.deliver(ec.leader, m)
		case <-ec.stopCh:
			return
		}
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
		ec.broadcast(epochMsg{kind: epochBegin, w: [3]uint64{inflight}})
	}
	resolve := func(commit bool) {
		if commit {
			lastCommitted = inflight
			consecAborts = 0
			ec.broadcast(epochMsg{kind: epochCommit, w: [3]uint64{lastCommitted}})
		} else {
			consecAborts++
			rewindGen++
			ec.broadcast(epochMsg{kind: epochRewind, w: [3]uint64{rewindGen, lastCommitted}})
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
			switch m.kind {
			case epochKick:
				if inflight == 0 {
					begin()
				} else {
					kicked = true
				}
			case epochPass:
				worker, epoch, lost := m.w[0], m.w[1], m.w[2]
				if epoch != inflight || got[worker] {
					continue
				}
				got[worker] = true
				loss += lost
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

// broadcast sends one coordinator decision to every worker, self included.
func (ec *epochCoordinator) broadcast(m epochMsg) {
	for w := 0; w < ec.workers; w++ {
		ec.deliver(w, m)
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

// --- the spout executor's epoch hooks (runSpoutExecutor) ---

// epochOpen records epoch 0, the initial state, for every open
// ReplayableSpout task: a rewind before the first commit replays the whole
// stream.
func (s *spoutExec) epochOpen() {
	s.replayable = make([]ReplayableSpout, len(s.ex.tasks))
	s.snaps = make([]map[uint64][]byte, len(s.ex.tasks))
	for i, ts := range s.ex.tasks {
		if rp, ok := ts.spout.(ReplayableSpout); ok && s.state[i] == spoutActive {
			s.replayable[i] = rp
			s.snaps[i] = map[uint64][]byte{0: rp.Checkpoint()}
		}
	}
}

// park sets an exhausted task aside instead of closing it: a rewind may
// reopen it.
func (s *spoutExec) park(i int) {
	s.state[i] = spoutParked
	s.nActive--
	s.nParked++
	if s.nActive == 0 {
		// Source drained: ask for a prompt epoch so the tail commits in a
		// couple of message hops instead of waiting out the interval.
		s.r.epochs.requestKick()
	}
}

// epochSync applies coordinator state between NextTuple calls: rewinds
// first (a restore must precede the next barrier's checkpoint), then
// barrier injection, then the exit check — true once every task is parked
// and an epoch injected after the final tuple committed.
func (s *spoutExec) epochSync() (exit bool) {
	ec := s.r.epochs
	if w := ec.rewindWord.Load(); w>>32 != s.lastGen {
		s.lastGen = w >> 32
		target := w & 0xffffffff
		for i, rp := range s.replayable {
			if rp == nil || s.state[i] == spoutClosed {
				continue
			}
			if snap, ok := s.snaps[i][target]; ok {
				rp.Restore(snap)
			}
			for k := range s.snaps[i] {
				if k > target {
					delete(s.snaps[i], k) // aborted-epoch positions: stale after the rewind
				}
			}
			if s.state[i] == spoutParked {
				s.state[i] = spoutActive
				s.nParked--
				s.nActive++
			}
		}
		s.exitEpoch = 0
	}
	if e := ec.pending.Load(); e > s.injected {
		s.inject(e)
	}
	return s.nActive == 0 && s.exitEpoch != 0 && ec.committed.Load() >= s.exitEpoch
}

// inject checkpoints every live ReplayableSpout task at epoch e, prunes
// positions older than the last commit, and sends barrier e downstream
// behind this executor's flushed output.
func (s *spoutExec) inject(e uint64) {
	ec := s.r.epochs
	s.out.flushAll()
	c := ec.committed.Load()
	for i, rp := range s.replayable {
		if rp == nil || s.state[i] == spoutClosed {
			continue
		}
		s.snaps[i][e] = rp.Checkpoint()
		for k := range s.snaps[i] {
			if k < c && k < e {
				delete(s.snaps[i], k)
			}
		}
	}
	ec.forward(s.rc, e, false)
	ec.localPass(e)
	s.injected = e
	if s.nActive == 0 && s.exitEpoch == 0 {
		s.exitEpoch = e
	}
}

// epochIdle waits while every task is parked: it returns true when a
// rewind reopened a task, false to exit (an epoch injected after the final
// tuple committed, no task left to reopen, or the run was cancelled).
func (s *spoutExec) epochIdle() bool {
	for s.nParked > 0 && !s.r.canceled() {
		if s.epochSync() {
			return false
		}
		if s.nActive > 0 {
			return true
		}
		select {
		case <-s.r.done:
		case <-time.After(time.Millisecond):
		}
	}
	return false
}
