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
//     its output buffers and sends a marker with mark N to every
//     downstream executor — local ones through the input channels, remote
//     ones as marker frames on the per-peer FIFO queue, both from the
//     spout's own goroutine so the barrier trails every pre-barrier
//     envelope (the same FIFO argument an end of stream relies on).
//   - A bolt executor keeps one mark per input edge, the highest its
//     sender sent, and the lowest of them is the epoch every input has
//     passed (alignment by the minimum: envelopes from separate inputs
//     merge into one FIFO channel, so once every input's mark reached N,
//     every earlier delivery on every input has been processed). When the
//     lowest mark rises past the last epoch it passed, the executor
//     flushes its own output and forwards that epoch downstream. An
//     ended edge's mark is markEnd, past every epoch, so it never holds
//     back the others. An input that skipped an aborted epoch is already
//     past it, so the minimum still passes that epoch once the other
//     inputs reach it; the coordinator ignores a pass for an epoch not in
//     flight.
//   - Each worker applies the same rule to its local executors: the
//     lowest epoch they all passed (an exited executor counts as markEnd),
//     capped at the epoch begun, is reported as pass(N, lossDelta) to the
//     coordinator whenever it rises. The delta is the growth of its fault
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
	"slices"
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

	// Per-worker agent bookkeeping: passed is, per eid, the highest epoch
	// each local executor passed, markEnd once it exited and for every
	// executor placed elsewhere; reported is the last epoch reported.
	mu       sync.Mutex
	passed   []uint64
	reported uint64
	lossBase uint64

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

		passed:   make([]uint64, len(r.execs)),
		outbox:   make(chan epochMsg, 256),
		leaderCh: make(chan epochMsg, 256),
		stopCh:   make(chan struct{}),
	}
	for _, ex := range r.execs {
		if !r.localExec(ex) {
			ec.passed[ex.eid] = markEnd
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
		// at all) passes every begun epoch; everyone else reports as its
		// last local executor passes.
		ec.mu.Lock()
		rep := ec.reportLocked()
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

// pass records that the local executor eid passed epoch mark (markEnd:
// it exited), and reports to the coordinator if that completed an epoch.
func (ec *epochCoordinator) pass(eid int, mark uint64) {
	ec.mu.Lock()
	ec.passed[eid] = max(ec.passed[eid], mark)
	rep := ec.reportLocked()
	ec.mu.Unlock()
	ec.send(rep)
}

// reportLocked builds the pass report (sent by the caller after unlocking)
// when the lowest epoch every local executor passed, capped at the epoch
// begun, rose past the last report. The loss delta is the growth of this
// worker's fault counters since its previous report: every way a
// pre-barrier tuple can vanish (routing drop, task error, panic,
// quarantine skip) increments a counter on the losing worker before that
// worker's last executor passes the barrier behind the tuple.
func (ec *epochCoordinator) reportLocked() epochMsg {
	low := min(slices.Min(ec.passed), ec.pending.Load())
	if low <= ec.reported {
		return epochMsg{}
	}
	ec.reported = low
	loss := ec.r.epochLossSum()
	delta := loss - ec.lossBase
	ec.lossBase = loss
	return epochMsg{kind: epochPass, w: [3]uint64{uint64(ec.r.cfg.selfWorker), low, delta}}
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
	labelGoroutine("epoch", ec.r.cfg.selfWorker)
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
	labelGoroutine("epoch", ec.r.cfg.selfWorker)
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
	s.r.forward(s.ex, e)
	ec.pass(s.ex.eid, e)
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
