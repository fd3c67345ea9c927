package storm

// The XOR acker: Storm's classic acker algorithm, the per-tuple
// at-least-once reliability implementation (WithAckMode(AckEpoch) selects
// barrier checkpointing instead, see epoch.go). It keeps O(1) state per
// *root*, not per edge of the tuple tree:
//
//   - Every delivery of an anchored tuple is one *edge*, tagged with a
//     random non-zero 64-bit id (a per-collector splitmix64 stream).
//   - The root's checksum XORs every edge id exactly twice: once when the
//     edge is created (the emitter accumulates created edges and pushes
//     them together with the consumed edge in a single update), and once
//     when the receiving bolt finishes executing the delivery.
//   - XOR is commutative and self-inverse, so no ordering is required
//     between updates: the checksum returns to zero exactly when every
//     edge was both created and consumed — the tree is complete. A false
//     zero requires a random 64-bit collision (probability 2^-64 per
//     update, Storm's own bound).
//
// The state is one table under one mutex: a map from root id to its entry.
// Root ids embed the owning worker in their low bits, so any worker
// computes the owner with a mask — no per-hop sub-anchors or id
// translation — and the bits above count the owner's anchored emissions.
//
// Updates are batched: each bolt executor accumulates ackUpdate entries
// for local roots and per worker for remote roots in an ackBatcher and
// flushes on the same triggers as its tuple batches — before blocking on
// input and on executor exit — so the common case takes the table lock
// once per flush, not per tuple, and cross-worker ack traffic ships as one
// coalesced frameAckBatch per flush.
//
// Failure semantics: a failed Execute, a routing drop or an undeliverable
// batch marks the root failed (the fail bit rides the same update, and
// every fail update carries a live edge of the tree, so a failed tree
// cannot reach zero before the fail bit lands); a drained failed tree
// waits out an exponential backoff and is replayed from the cached root
// tuple; a tree past MaxRetries expires as dropped; a tree that never
// drains is replayed by the deadline sweeper. At-least-once.

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// AckMode selects the reliability implementation behind WithAckTimeout.
type AckMode int

const (
	// AckXOR (the default) tracks anchored tuple trees with the XOR-checksum
	// acker: O(1) state per root, batched updates riding the transport's
	// flush triggers.
	AckXOR AckMode = iota
	// AckEpoch replaces per-tuple tracking entirely with aligned epoch
	// barriers and per-epoch spout replay (see epoch.go): zero per-tuple
	// ack traffic, effectively-once output for idempotent sinks. Spouts
	// opt into rewind by implementing ReplayableSpout.
	AckEpoch
)

func (m AckMode) String() string {
	switch m {
	case AckXOR:
		return "xor"
	case AckEpoch:
		return "epoch"
	}
	return fmt.Sprintf("AckMode(%d)", int(m))
}

// ParseAckMode parses "xor" or "epoch" (case-insensitive).
func ParseAckMode(s string) (AckMode, error) {
	switch strings.ToLower(s) {
	case "xor":
		return AckXOR, nil
	case "epoch":
		return AckEpoch, nil
	}
	return 0, fmt.Errorf("storm: unknown ack mode %q (want xor or epoch)", s)
}

// ackUpdate is one checksum update: XOR xor into root's checksum, OR fail
// into its failed bit. Updates commute, so they can be batched, reordered
// and routed across workers freely.
type ackUpdate struct {
	root uint64
	xor  uint64
	fail bool
}

// xorRoot is one in-flight anchored root: a checksum, the replay state,
// and a deadline. Before the spout's register arrives (bolt updates can
// race ahead of it), the entry is an unregistered placeholder that only
// accumulates checksum bits.
type xorRoot struct {
	id uint64

	rc         *runningComponent // spout component (nil on placeholders)
	ts         *taskState        // spout task (nil on placeholders)
	msgID      string
	tuple      Tuple     // root tuple with ack id stamped, cached for replay (Values nil)
	vals       []kvEntry // flat payload snapshot; rebuilt into a map only on replay
	directTask int       // EmitDirectAnchored target task, -1 otherwise

	checksum   uint64
	failed     bool
	registered bool
	backoff    bool // drained-failed, parked awaiting the sweeper's replay
	retries    int
	deadline   int64 // unix nanos
}

// kvEntry is one payload field in a root's flat snapshot. Snapshotting
// into a slice instead of cloning the map keeps the register hot path off
// map hashing; replays — the rare path — rebuild the map.
type kvEntry struct {
	k string
	v any
}

// maxFreeRoots bounds the free list of recycled roots.
const maxFreeRoots = 4096

// ackCallback is a spout Ack/Fail notification collected under the table
// lock and fired outside it.
type ackCallback struct {
	spout AckingSpout
	msgID string
	fail  bool
}

func (cb ackCallback) fire() {
	if cb.fail {
		cb.spout.Fail(cb.msgID)
	} else {
		cb.spout.Ack(cb.msgID)
	}
}

// xorAcker tracks anchored roots by XOR checksum in one locked table.
type xorAcker struct {
	r          *Runtime
	timeout    time.Duration
	maxRetries int

	// A root id is seq<<workerBits | owning worker (0 worker bits in
	// single-process runs).
	self       uint64
	workerMask uint64
	workerBits uint

	seq     atomic.Uint64
	stopped atomic.Bool

	// mu guards roots — the registered roots and the placeholders of
	// updates that arrived before their register — and free, resolved
	// roots kept for reuse with their payload-snapshot arrays: per-root
	// allocation and the payload copy are the dominant acking costs at
	// high rates, and a resolved root is released under the lock, where no
	// reference to it can have escaped.
	mu    sync.Mutex
	roots map[uint64]*xorRoot
	free  []*xorRoot

	// Drain-waiter parking: waitTask blocks here until its task's
	// ackPending counter (on taskState) returns to zero. A single cond for
	// the whole acker keeps the per-resolution cost to one atomic add;
	// waiters counts parked tasks so steady-state zero crossings (no one
	// draining) skip the lock entirely.
	drainMu   sync.Mutex
	drainCond *sync.Cond
	waiters   atomic.Int32

	// sendRemote ships updates for roots owned by another worker (set by
	// the peer links; while nil, remote updates are dropped and the
	// owner's roots replay or expire on timeout).
	sendRemote func(worker int, ents []ackUpdate)

	// Replay-collector shuffle counters; only the sweeper goroutine
	// delivers replays, so these are never shared with task collectors.
	shuffle map[*subscription]*uint64

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newXorAcker(r *Runtime, timeout time.Duration, maxRetries int) *xorAcker {
	workerBits := uint(0)
	if n := len(r.cfg.peers); n > 1 {
		workerBits = uint(bits.Len(uint(n - 1)))
	}
	a := &xorAcker{
		r: r, timeout: timeout, maxRetries: maxRetries,
		self:       uint64(r.cfg.selfWorker),
		workerMask: 1<<workerBits - 1,
		workerBits: workerBits,
		roots:      make(map[uint64]*xorRoot),
		shuffle:    make(map[*subscription]*uint64),
		stopCh:     make(chan struct{}),
	}
	a.drainCond = sync.NewCond(&a.drainMu)
	return a
}

func (a *xorAcker) start(done <-chan struct{}) {
	a.wg.Add(1)
	go a.loop(done)
}

func (a *xorAcker) stop() {
	close(a.stopCh)
	a.wg.Wait()
}

func (a *xorAcker) loop(done <-chan struct{}) {
	defer a.wg.Done()
	labelGoroutine("acker", a.r.cfg.selfWorker)
	t := time.NewTicker(sweepTick(a.timeout))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.sweep()
		case <-done:
			a.cancelAll()
			return
		case <-a.stopCh:
			return
		}
	}
}

func (a *xorAcker) owner(root uint64) int { return int(root & a.workerMask) }

// newRoot returns a fresh root id owned by this worker, or 0 when the
// acker is stopped (the emission then proceeds unanchored).
func (a *xorAcker) newRoot() uint64 {
	if a.stopped.Load() {
		return 0
	}
	return a.seq.Add(1)<<a.workerBits | a.self
}

// takeLocked enters a zeroed root for id into the table, recycling a
// resolved one when the free list has any. Callers hold a.mu.
func (a *xorAcker) takeLocked(id uint64) *xorRoot {
	var p *xorRoot
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free = a.free[:n-1]
		p.id = id
	} else {
		p = &xorRoot{id: id}
	}
	a.roots[id] = p
	return p
}

// releaseLocked removes a root from the table and returns it to the free
// list, keeping its payload-snapshot backing array. Callers hold a.mu and
// must have copied out any fields they still need (e.g. into an
// ackCallback): the struct is reused by the next takeLocked.
func (a *xorAcker) releaseLocked(p *xorRoot) {
	delete(a.roots, p.id)
	clear(p.vals) // drop payload references for the collector
	p.vals = p.vals[:0]
	// Only the fields later code branches on are reset; msgID, tuple,
	// directTask and deadline are overwritten before anyone reads them
	// (register, or the placeholder path of apply). rc/ts must be nil so
	// a reuse as placeholder doesn't credit a stale task's pending count.
	p.rc, p.ts = nil, nil
	p.checksum = 0
	p.failed, p.registered, p.backoff = false, false, false
	p.retries = 0
	if len(a.free) < maxFreeRoots {
		a.free = append(a.free, p)
	}
}

// register completes a root allocated by newRoot, after its initial
// deliveries were issued: initXor is the XOR of the delivered edge ids,
// initFail whether any initial delivery was dropped at routing. Updates
// that raced ahead of registration have accumulated in a placeholder and
// are merged. *vals is the emitter's payload snapshot, taken BEFORE the
// first delivery shipped — the sole receiver of an exclusive edge may write
// to the map as soon as an envelope reaches its executor, so by the
// time register runs the live map must no longer be touched. The root
// takes ownership of the snapshot's backing array and *vals receives the
// root's recycled one in exchange, so the steady state flattens each
// payload exactly once and copies nothing.
func (a *xorAcker) register(root uint64, rc *runningComponent, ts *taskState, msgID string, t Tuple, directTask int, vals *[]kvEntry, initXor uint64, initFail bool, start time.Time) {
	a.mu.Lock()
	if a.stopped.Load() {
		a.mu.Unlock()
		return
	}
	p := a.roots[root]
	if p == nil {
		p = a.takeLocked(root)
	}
	p.rc, p.ts, p.msgID = rc, ts, msgID
	p.tuple = t
	p.tuple.Values = nil
	p.vals, *vals = *vals, p.vals[:0]
	p.directTask = directTask
	p.checksum ^= initXor
	p.failed = p.failed || initFail
	p.registered = true
	p.deadline = satAddNanos(start.UnixNano(), int64(a.timeout))
	ts.ackPending.Add(1)
	if p.checksum == 0 {
		// Rare: a zero-subscriber emission, or the whole tree's updates
		// beat the register to the table.
		var rb resolveBatch
		a.resolveLocked(p, time.Now().UnixNano(), &rb)
		a.mu.Unlock()
		a.finishResolves(&rb)
		return
	}
	a.mu.Unlock()
}

// apply routes one checksum update: into the table for local roots, to
// the owning worker for remote ones. Used on the cold paths (replay
// completion, drops); the hot path batches through an ackBatcher instead.
func (a *xorAcker) apply(root, xor uint64, fail bool) {
	if a.stopped.Load() {
		// Local updates are already dropped inside applyLocal, but the
		// remote branch below takes no lock: without this gate a late
		// drop/replay completion would hand frames to a transport that may
		// be mid-teardown.
		return
	}
	if w := a.owner(root); w != int(a.self) {
		if sr := a.sendRemote; sr != nil {
			sr(w, []ackUpdate{{root: root, xor: xor, fail: fail}})
		}
		return
	}
	u := [1]ackUpdate{{root: root, xor: xor, fail: fail}}
	var rb resolveBatch
	a.applyLocal(u[:], &rb)
}

// applyLocal folds a batch of updates for roots this worker owns under a
// single lock acquisition and one clock read; roots whose checksum returns
// to zero resolve (ack, expire, or arm the replay backoff). Spout
// callbacks fire outside the lock.
func (a *xorAcker) applyLocal(ents []ackUpdate, rb *resolveBatch) {
	now := time.Now().UnixNano()
	a.mu.Lock()
	if a.stopped.Load() {
		a.mu.Unlock()
		return
	}
	for i := range ents {
		u := &ents[i]
		p := a.roots[u.root]
		if p == nil {
			// The update beat the spout's register to the table (the bolt
			// consumed a delivery before the emitting goroutine got here):
			// park a placeholder accumulating the checksum until register
			// merges it. The deadline is a GC horizon for registers that
			// never arrive (acker stopped on the emitting path).
			p = a.takeLocked(u.root)
			p.deadline = a.placeholderDeadline(now)
		}
		p.checksum ^= u.xor
		p.failed = p.failed || u.fail
		if p.registered && p.checksum == 0 {
			a.resolveLocked(p, now, rb)
		}
	}
	a.mu.Unlock()
	a.finishResolves(rb)
}

// resolveBatch collects the side effects of the resolutions in one
// applyLocal, register or sweep call: spout callbacks fire after the table
// lock drops, and the acked/expired/pending counters — shared cache lines
// hammered from every bolt executor — take one atomic add per batch and
// component instead of one per root.
type resolveBatch struct {
	cbs []ackCallback

	rc             *runningComponent
	ts             *taskState
	acked, expired uint64
	resolved       int64
}

// flushStats publishes a batch's counter deltas for its current component
// and wakes drain waiters when the task's pending count reaches zero with
// a waiter parked. drainMu nests inside the table lock and is only touched
// on the zero crossing, so the hot path never sees it.
func (a *xorAcker) flushStats(rb *resolveBatch) {
	if rb.rc == nil {
		return
	}
	if rb.acked > 0 {
		rb.rc.acked.Add(rb.acked)
	}
	if rb.expired > 0 {
		rb.rc.expired.Add(rb.expired)
	}
	if rb.resolved > 0 {
		if rb.ts.ackPending.Add(-rb.resolved) == 0 && a.waiters.Load() > 0 {
			a.drainMu.Lock()
			a.drainCond.Broadcast()
			a.drainMu.Unlock()
		}
	}
	rb.rc, rb.ts, rb.acked, rb.expired, rb.resolved = nil, nil, 0, 0, 0
}

// finishResolves settles a batch's deferred effects after the table lock
// is released: counter flush, then spout callbacks. The callback buffer is
// cleared but keeps its capacity — ackBatchers pass a long-lived
// resolveBatch, so the steady state allocates nothing.
func (a *xorAcker) finishResolves(rb *resolveBatch) {
	a.flushStats(rb)
	for _, cb := range rb.cbs {
		cb.fire()
	}
	clear(rb.cbs)
	rb.cbs = rb.cbs[:0]
}

// finishLocked removes a registered root for good — acked, or expired as
// dropped — recording its counter deltas and spout callback in rb. The
// deltas flush when the owning component changes (rare: batches are
// dominated by one spout). Callers hold a.mu.
func (a *xorAcker) finishLocked(p *xorRoot, expired bool, rb *resolveBatch) {
	if p.rc != rb.rc || p.ts != rb.ts {
		a.flushStats(rb)
		rb.rc, rb.ts = p.rc, p.ts
	}
	if expired {
		rb.expired++
	} else {
		rb.acked++
	}
	rb.resolved++
	if sp := p.ts.ackSpout; sp != nil {
		rb.cbs = append(rb.cbs, ackCallback{spout: sp, msgID: p.msgID, fail: expired})
	}
	a.releaseLocked(p)
}

// resolveLocked settles a drained tree (registered, checksum zero): a
// clean tree acks the spout, a failed tree past maxRetries expires as
// dropped, and a failed tree with retries left waits out its backoff for
// the sweeper to replay. Callers hold a.mu and finish the batch after
// releasing it.
func (a *xorAcker) resolveLocked(p *xorRoot, now int64, rb *resolveBatch) {
	switch {
	case !p.failed:
		a.finishLocked(p, false, rb)
	case p.retries >= a.maxRetries:
		a.finishLocked(p, true, rb)
	default:
		// A failed tree parks here until the sweeper replays it. The tree
		// is already drained, but duplicate zero-net updates can still
		// re-enter (a multi-drop tree pushes one fail update per dropped
		// hop): arming the deadline again on each re-entry would keep
		// shoving the replay into the future, so only the transition INTO
		// backoff sets it.
		if !p.backoff {
			p.backoff = true
			p.deadline = satAddNanos(now, int64(backoffFor(a.timeout, p.retries)))
		}
	}
}

// placeholderDeadline bounds how long an unregistered placeholder is kept
// before the sweeper discards it as orphaned: generously past any point a
// live register could still arrive.
func (a *xorAcker) placeholderDeadline(now int64) int64 {
	return satAddNanos(now, int64(backoffFor(a.timeout, 2))+int64(time.Second))
}

// sweep scans the table for due roots: registered trees past their
// deadline are replayed (or expired past maxRetries), orphaned
// placeholders are discarded.
func (a *xorAcker) sweep() {
	now := time.Now().UnixNano()
	var replays []*xorRoot
	var holds []uint64
	var rb resolveBatch
	a.mu.Lock()
	if a.stopped.Load() {
		a.mu.Unlock()
		return
	}
	for _, p := range a.roots {
		switch {
		case now < p.deadline:
		case !p.registered:
			a.releaseLocked(p) // orphaned placeholder: its register never came
		case p.retries >= a.maxRetries:
			a.finishLocked(p, true, &rb)
		default:
			p.retries++
			p.failed = false
			p.backoff = false
			// The replay hold: a fresh random edge XORed in before
			// redelivery and released together with the redelivered edges,
			// so the tree cannot drain to zero while the replay is still
			// being issued.
			es := newEdgeStream()
			hold := es.next()
			p.checksum ^= hold
			p.deadline = satAddNanos(now, int64(backoffFor(a.timeout, p.retries)))
			p.rc.replays.Add(1)
			replays = append(replays, p)
			holds = append(holds, hold)
		}
	}
	a.mu.Unlock()
	a.finishResolves(&rb)
	for i, p := range replays {
		a.redeliver(p, holds[i])
	}
}

// redeliver replays one root tuple through the topology on the sweeper
// goroutine, then releases the replay hold together with the fresh edges
// it created (and the fail bit if routing dropped the replay). Each
// replay delivers a fresh map built from the cached payload: the consumer
// may write to it in place, and a further replay must still see the
// original.
func (a *xorAcker) redeliver(p *xorRoot, hold uint64) {
	col := &taskCollector{r: a.r, rc: p.rc, ts: p.ts, shuffle: a.shuffle, edges: newEdgeStream()}
	rt := p.tuple
	rt.Values = make(map[string]any, len(p.vals))
	for _, e := range p.vals {
		rt.Values[e.k] = e.v
	}
	for _, sub := range p.rc.subs[rt.Stream] {
		if p.directTask >= 0 && sub.grouping.Type != DirectGrouping {
			continue
		}
		col.deliver(sub, &rt, p.directTask)
	}
	a.apply(p.id, hold^col.pendXor, col.pendFail)
}

// cancelAll expires every pending root (run cancellation): drain waiters
// wake, Fail callbacks fire, and later newRoot calls emit unanchored.
func (a *xorAcker) cancelAll() {
	a.stopped.Store(true)
	var cbs []ackCallback
	a.mu.Lock()
	for _, p := range a.roots {
		if !p.registered {
			continue
		}
		p.rc.expired.Add(1)
		p.ts.ackPending.Add(-1)
		if sp := p.ts.ackSpout; sp != nil {
			cbs = append(cbs, ackCallback{spout: sp, msgID: p.msgID, fail: true})
		}
	}
	clear(a.roots)
	a.mu.Unlock()
	a.drainMu.Lock()
	a.drainCond.Broadcast()
	a.drainMu.Unlock()
	for _, cb := range cbs {
		cb.fire()
	}
}

// waitTask blocks until the task has no pending anchored roots, keeping
// its spout executor — and therefore its downstream channels — alive
// while replays are still possible.
func (a *xorAcker) waitTask(ts *taskState) {
	a.waiters.Add(1)
	defer a.waiters.Add(-1)
	a.drainMu.Lock()
	for !a.stopped.Load() && ts.ackPending.Load() > 0 {
		a.drainCond.Wait()
	}
	a.drainMu.Unlock()
}

// pendingRoots counts the table's entries, for the monitor's
// storm.acker.pending gauge.
func (a *xorAcker) pendingRoots() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.roots)
}

// --- edge-id generation ---

// edgeSeed spaces per-collector splitmix64 streams: each collector starts
// from a distinct point of one global sequence (large odd stride, so the
// counter walks the full 2^64 cycle) and streams never collide in
// practice.
var edgeSeed atomic.Uint64

type edgeState uint64

func newEdgeStream() edgeState {
	return edgeState(edgeSeed.Add(0x7f4a7c15f39cc061))
}

// next returns the next non-zero pseudo-random edge id (splitmix64; zero
// means "no edge" on the wire and is skipped).
func (e *edgeState) next() uint64 {
	for {
		*e += 0x9e3779b97f4a7c15
		z := uint64(*e)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// satAddNanos adds a non-negative duration to a unix-nano timestamp,
// saturating instead of wrapping negative.
func satAddNanos(now, d int64) int64 {
	if c := now + d; c >= now {
		return c
	}
	return math.MaxInt64
}

// --- batched updates ---

// ackBatchCap bounds how many updates accumulate per destination before
// an inline flush.
const ackBatchCap = 256

// ackBatcher buffers checksum updates per destination — one buffer for
// this worker's roots, one per remote worker — and flushes them on the
// executor's existing triggers (before blocking on input, on exit), so the
// steady state pays one table lock (or one wire frame) per flush instead
// of per tuple.
type ackBatcher struct {
	ak         *xorAcker
	local      []ackUpdate
	remote     [][]ackUpdate
	dirtyPeers []int
	// rb is the batcher's reusable resolution scratch: applyLocal appends
	// spout callbacks into it and finishResolves drains it, keeping the
	// buffer's capacity across flushes. Owned by the executor goroutine.
	rb resolveBatch
}

func (a *xorAcker) newBatcher() *ackBatcher {
	return &ackBatcher{ak: a, remote: make([][]ackUpdate, max(len(a.r.cfg.peers), 1))}
}

func (ab *ackBatcher) push(root, xor uint64, fail bool) {
	a := ab.ak
	if w := a.owner(root); w != int(a.self) {
		buf := ab.remote[w]
		if len(buf) == 0 {
			ab.dirtyPeers = append(ab.dirtyPeers, w)
		}
		ab.remote[w] = append(buf, ackUpdate{root: root, xor: xor, fail: fail})
		if len(ab.remote[w]) >= ackBatchCap {
			ab.flushPeer(w)
		}
		return
	}
	ab.local = append(ab.local, ackUpdate{root: root, xor: xor, fail: fail})
	if len(ab.local) >= ackBatchCap {
		ab.flushLocal()
	}
}

func (ab *ackBatcher) flushLocal() {
	if len(ab.local) > 0 {
		ab.ak.applyLocal(ab.local, &ab.rb)
		ab.local = ab.local[:0]
	}
}

func (ab *ackBatcher) flushPeer(w int) {
	buf := ab.remote[w]
	if len(buf) == 0 {
		return
	}
	if sr := ab.ak.sendRemote; sr != nil {
		sr(w, buf)
	}
	// With no remote path, the updates are dropped and the owner's roots
	// replay or expire on their own timeouts.
	ab.remote[w] = buf[:0]
}

// flush applies every buffered update. A peer may appear twice in the
// dirty list after a capacity-triggered inline flush re-armed it; the
// per-peer flushes are idempotent on empty buffers.
func (ab *ackBatcher) flush() {
	ab.flushLocal()
	for _, w := range ab.dirtyPeers {
		ab.flushPeer(w)
	}
	ab.dirtyPeers = ab.dirtyPeers[:0]
}
