package storm

// The sharded XOR acker: Storm's classic acker algorithm, the per-tuple
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
// State is sharded: root ids embed the owning worker in their low bits
// (any worker computes the owner with a mask — no per-hop sub-anchors or
// id translation) and the sequence bits above select one of ackShards
// shards, each an independently locked power-of-two slot table. Sequential
// roots land on rotating shards, so concurrent spout registration and bolt
// completion traffic spreads over several locks instead of serializing on
// one.
//
// Updates are batched: each bolt executor accumulates ackUpdate entries
// per shard (local roots) and per worker (remote roots) in an ackBatcher
// and flushes on the same triggers as its tuple batches — before blocking
// on input and on executor exit — so the common case pays one shard lock
// per flush, not per tuple, and cross-worker ack traffic ships as one
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
	// AckXOR (the default) tracks anchored tuple trees with the sharded
	// XOR-checksum acker: O(1) state per root, no global mutex, batched
	// updates riding the transport's flush triggers.
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
	id  uint64
	key uint64 // slot key: id with worker and shard bits stripped

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

// ackerShard is one independently locked slice of the root table. Slot
// keys are dense sequential integers per shard (the acker's sequence
// counter with the shard bits stripped), so the table is a power-of-two
// ring indexed by key&mask — a lookup is one load and one compare. The
// ring grows while the in-flight window outruns it; past maxShardSlots
// the excess spills into a map.
type ackerShard struct {
	mu       sync.Mutex
	slots    []*xorRoot
	overflow map[uint64]*xorRoot
	live     int

	// freeRoots recycles resolved roots (with their payload-snapshot
	// backing arrays): per-root allocation and the payload clone are the
	// dominant acking costs at high rates, and a resolved root releases at
	// a point (under the shard lock) where no reference can have escaped.
	freeRoots []*xorRoot
}

// kvEntry is one payload field in a root's flat snapshot. Snapshotting
// into a slice instead of cloning the map keeps the register hot path off
// map hashing; replays — the rare path — rebuild the map.
type kvEntry struct {
	k string
	v any
}

const (
	// ackShards is the number of lock-striped shards (a power of two: the
	// shard index is a mask over the root sequence).
	ackShards      = 8
	initShardSlots = 1024
	maxShardSlots  = 1 << 20
	maxShardFree   = 4096
)

func (s *ackerShard) get(key uint64) *xorRoot {
	if p := s.slots[key&uint64(len(s.slots)-1)]; p != nil && p.key == key {
		return p
	}
	if s.overflow != nil {
		return s.overflow[key]
	}
	return nil
}

func (s *ackerShard) insert(p *xorRoot) {
	for {
		i := p.key & uint64(len(s.slots)-1)
		if s.slots[i] == nil {
			s.slots[i] = p
			s.live++
			return
		}
		if len(s.slots) >= maxShardSlots {
			if s.overflow == nil {
				s.overflow = make(map[uint64]*xorRoot)
			}
			s.overflow[p.key] = p
			s.live++
			return
		}
		s.grow()
	}
}

func (s *ackerShard) grow() {
	old := s.slots
	s.slots = make([]*xorRoot, 2*len(old))
	mask := uint64(len(s.slots) - 1)
	for _, p := range old {
		if p == nil {
			continue
		}
		if i := p.key & mask; s.slots[i] == nil {
			s.slots[i] = p
		} else {
			if s.overflow == nil {
				s.overflow = make(map[uint64]*xorRoot)
			}
			s.overflow[p.key] = p
		}
	}
}

func (s *ackerShard) remove(p *xorRoot) {
	if i := p.key & uint64(len(s.slots)-1); s.slots[i] == p {
		s.slots[i] = nil
	} else if s.overflow != nil {
		delete(s.overflow, p.key)
	}
	s.live--
}

// removeRootLocked drops a registered root, decrements its spout task's
// pending count, and wakes drain waiters when the task hits zero with a
// waiter parked. Callers hold s.mu; drainMu nests inside shard locks and
// is only touched on the zero crossing, so the hot path never sees it.
func (a *xorAcker) removeRootLocked(s *ackerShard, p *xorRoot) {
	s.remove(p)
	if p.ts != nil && p.ts.ackPending.Add(-1) == 0 && a.waiters.Load() > 0 {
		a.drainMu.Lock()
		a.drainCond.Broadcast()
		a.drainMu.Unlock()
	}
}

// takeRoot allocates (or recycles) a zeroed root for id/key. Callers hold
// s.mu.
func (s *ackerShard) takeRoot(id, key uint64) *xorRoot {
	if n := len(s.freeRoots); n > 0 {
		p := s.freeRoots[n-1]
		s.freeRoots = s.freeRoots[:n-1]
		p.id, p.key = id, key
		return p
	}
	return &xorRoot{id: id, key: key}
}

// recycleLocked returns a removed root to the shard free list, keeping
// its payload-snapshot backing array. Callers hold s.mu and must have
// copied out any fields they still need (e.g. into an ackCallback): the
// struct is reused by the next register on this shard.
func (s *ackerShard) recycleLocked(p *xorRoot) {
	clear(p.vals) // drop payload references for the collector
	p.vals = p.vals[:0]
	// Only the fields later code branches on are reset; msgID, tuple,
	// directTask and deadline are overwritten before anyone reads them
	// (register, or takeRoot's placeholder path). rc/ts must be nil so a
	// reuse as placeholder doesn't credit a stale task's pending count.
	p.rc, p.ts = nil, nil
	p.checksum = 0
	p.failed, p.registered, p.backoff = false, false, false
	p.retries = 0
	if len(s.freeRoots) < maxShardFree {
		s.freeRoots = append(s.freeRoots, p)
	}
}

// ackCallback is a spout Ack/Fail notification collected under a shard
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

// xorAcker tracks anchored roots by XOR checksum across sharded tables.
type xorAcker struct {
	r          *Runtime
	timeout    time.Duration
	maxRetries int

	// Root-id layout, low to high: workerBits of owning worker (0 bits in
	// single-process runs), then the sequence counter. The shard index is
	// taken blockwise from the sequence — bits [shardBlockBits,
	// shardBlockBits+shardBits) — so 2^shardBlockBits consecutive roots
	// land on one shard. A spout's emission window then keeps a single
	// shard's lock and slot ring hot in cache instead of cycling every
	// shard per tuple, while update batches for it coalesce into dense
	// per-shard runs; shards still rotate every block, spreading load.
	// The slot key keeps the full sequence (unique across shards), since
	// blockmates share low sequence bits.
	self       uint64
	workerMask uint64
	workerBits uint
	shardMask  uint64
	shardBits  uint // log2(len(shards)): stripped from slot keys

	seq     atomic.Uint64
	stopped atomic.Bool
	shards  []*ackerShard

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
		shardMask:  ackShards - 1,
		shardBits:  uint(bits.Len(ackShards - 1)),
		shards:     make([]*ackerShard, ackShards),
		shuffle:    make(map[*subscription]*uint64),
		stopCh:     make(chan struct{}),
	}
	a.drainCond = sync.NewCond(&a.drainMu)
	for i := range a.shards {
		a.shards[i] = &ackerShard{slots: make([]*xorRoot, initShardSlots)}
	}
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

// shardBlockBits sizes the run of consecutive roots assigned to one shard
// (see the root-id layout comment on xorAcker).
const shardBlockBits = 8

func (a *xorAcker) shardOf(root uint64) int {
	return int((root >> (a.workerBits + shardBlockBits)) & a.shardMask)
}

// slotKey compresses a root id into its shard's dense slot key. Within one
// shard every root agrees on the worker bits and the shard-selector bits
// [shardBlockBits, shardBlockBits+shardBits) of the sequence, so both carry
// no information and are stripped: key = block<<shardBlockBits | offset,
// where offset is the sequence below the selector and block the sequence
// above it. Consecutive roots of a shard's block then occupy consecutive
// ring slots, keeping the power-of-two ring dense — leaving the selector
// bits in (they are fixed per shard) would make only 1/len(shards) of the
// ring slots addressable.
func (a *xorAcker) slotKey(root uint64) uint64 {
	seq := root >> a.workerBits
	return (seq>>(shardBlockBits+a.shardBits))<<shardBlockBits | seq&(1<<shardBlockBits-1)
}

// rootBlock is how many sequential root ids a spout collector reserves
// per trip to the shared counter; sequential ids still rotate across
// shards and stay dense within each shard's slot ring.
const rootBlock = 64

// newRootBlock reserves n sequential root ids for this worker and returns
// the first, or 0 when the acker is stopped (the emission then proceeds
// unanchored). Ids handed out from a cached block after a stop register as
// no-ops (register checks stopped), so a stale block is harmless.
func (a *xorAcker) newRootBlock(n uint64) uint64 {
	if a.stopped.Load() {
		return 0
	}
	hi := a.seq.Add(n)
	return (hi-n+1)<<a.workerBits | a.self
}

// register completes a root allocated by newRootBlock, after its initial
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
	s := a.shards[a.shardOf(root)]
	key := a.slotKey(root)
	s.mu.Lock()
	if a.stopped.Load() {
		s.mu.Unlock()
		return
	}
	p := s.get(key)
	if p == nil {
		p = s.takeRoot(root, key)
		s.insert(p)
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
		// beat the register to this shard.
		var rb resolveBatch
		a.resolveLocked(s, p, time.Now().UnixNano(), &rb)
		s.mu.Unlock()
		a.finishResolves(&rb)
		return
	}
	s.mu.Unlock()
}

// apply routes one checksum update: to the owning shard for local roots,
// to the owning worker for remote ones. Used on the cold paths (replay
// completion, drops, wire-received updates); the hot path batches through
// an ackBatcher instead.
func (a *xorAcker) apply(root, xor uint64, fail bool) {
	if a.stopped.Load() {
		// Local updates are already dropped inside applyShard, but the
		// remote branch below has no shard lock: without this gate a late
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
	a.applyShard(a.shardOf(root), u[:], &rb)
}

// applyShard folds a batch of updates for one shard under a single lock
// acquisition and one clock read; roots whose checksum returns to zero
// resolve (ack, expire, or arm the replay backoff). Spout callbacks fire
// outside the lock.
func (a *xorAcker) applyShard(si int, ents []ackUpdate, rb *resolveBatch) {
	s := a.shards[si]
	now := time.Now().UnixNano()
	s.mu.Lock()
	if a.stopped.Load() {
		s.mu.Unlock()
		return
	}
	for i := range ents {
		u := &ents[i]
		key := a.slotKey(u.root)
		p := s.get(key)
		if p == nil {
			// The update beat the spout's register to the shard (the bolt
			// consumed a delivery before the emitting goroutine got here):
			// park a placeholder accumulating the checksum until register
			// merges it. The deadline is a GC horizon for registers that
			// never arrive (acker stopped on the emitting path).
			p = s.takeRoot(u.root, key)
			p.deadline = a.placeholderDeadline(now)
			s.insert(p)
		}
		p.checksum ^= u.xor
		p.failed = p.failed || u.fail
		if p.registered && p.checksum == 0 {
			a.resolveLocked(s, p, now, rb)
		}
	}
	s.mu.Unlock()
	a.finishResolves(rb)
}

// resolveBatch collects the side effects of the resolutions in one
// applyShard (or register) call: spout callbacks fire after the shard lock
// drops, and the acked/expired/pending counters — shared cache lines
// hammered from every bolt executor — take one atomic add per batch and
// component instead of one per root.
type resolveBatch struct {
	cbs []ackCallback

	rc             *runningComponent
	ts             *taskState
	acked, expired uint64
	resolved       int64
}

// noteLocked records one resolved root's counter deltas, flushing when the
// owning component changes (rare: batches are dominated by one spout).
func (a *xorAcker) noteLocked(rb *resolveBatch, p *xorRoot, expired bool) {
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
}

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

// finishResolves settles a batch's deferred effects after the shard lock
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

// resolveLocked settles a drained tree (registered, checksum zero): a
// clean tree acks the spout, a failed tree past maxRetries expires as
// dropped, and a failed tree with retries left waits out its backoff for
// the sweeper to replay. Callers hold s.mu and finish the batch after
// releasing it.
func (a *xorAcker) resolveLocked(s *ackerShard, p *xorRoot, now int64, rb *resolveBatch) {
	switch {
	case !p.failed:
		s.remove(p)
		a.noteLocked(rb, p, false)
		if sp := p.ts.ackSpout; sp != nil {
			if rb.cbs == nil {
				rb.cbs = make([]ackCallback, 0, 16)
			}
			rb.cbs = append(rb.cbs, ackCallback{spout: sp, msgID: p.msgID})
		}
		s.recycleLocked(p)
	case p.retries >= a.maxRetries:
		s.remove(p)
		a.noteLocked(rb, p, true)
		if sp := p.ts.ackSpout; sp != nil {
			if rb.cbs == nil {
				rb.cbs = make([]ackCallback, 0, 16)
			}
			rb.cbs = append(rb.cbs, ackCallback{spout: sp, msgID: p.msgID, fail: true})
		}
		s.recycleLocked(p)
	default:
		// A failed tree parks here until the sweeper replays it. The tree
		// is already drained, but duplicate zero-net updates can still
		// re-enter (any {xor:0, fail:true} passes the batcher's push guard,
		// and a multi-drop tree pushes one fail update per dropped hop):
		// arming the deadline again on each re-entry would keep shoving the
		// replay into the future, so only the transition INTO backoff sets
		// it.
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

// sweep scans every shard for due roots: registered trees past their
// deadline are replayed (or expired past maxRetries), orphaned
// placeholders are discarded.
func (a *xorAcker) sweep() {
	now := time.Now().UnixNano()
	for si := range a.shards {
		a.sweepShard(si, now)
	}
}

func (a *xorAcker) sweepShard(si int, now int64) {
	s := a.shards[si]
	var replays []*xorRoot
	var holds []uint64
	var cbs []ackCallback
	s.mu.Lock()
	if a.stopped.Load() {
		s.mu.Unlock()
		return
	}
	scan := func(p *xorRoot) {
		if p == nil || now < p.deadline {
			return
		}
		if !p.registered {
			s.remove(p) // orphaned placeholder: its register never came
			s.recycleLocked(p)
			return
		}
		if p.retries >= a.maxRetries {
			a.removeRootLocked(s, p)
			p.rc.expired.Add(1)
			if sp := p.ts.ackSpout; sp != nil {
				cbs = append(cbs, ackCallback{spout: sp, msgID: p.msgID, fail: true})
			}
			s.recycleLocked(p)
			return
		}
		p.retries++
		p.failed = false
		p.backoff = false
		// The replay hold: a fresh random edge XORed in before redelivery
		// and released together with the redelivered edges, so the tree
		// cannot drain to zero while the replay is still being issued.
		es := newEdgeStream()
		hold := es.next()
		p.checksum ^= hold
		p.deadline = satAddNanos(now, int64(backoffFor(a.timeout, p.retries)))
		p.rc.replays.Add(1)
		replays = append(replays, p)
		holds = append(holds, hold)
	}
	for _, p := range s.slots {
		scan(p)
	}
	for _, p := range s.overflow {
		scan(p)
	}
	s.mu.Unlock()
	for _, cb := range cbs {
		cb.fire()
	}
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
// wake, Fail callbacks fire, and later newRootBlock calls emit unanchored.
func (a *xorAcker) cancelAll() {
	a.stopped.Store(true)
	var cbs []ackCallback
	for _, s := range a.shards {
		s.mu.Lock()
		collect := func(p *xorRoot) {
			if p == nil || !p.registered {
				return
			}
			p.rc.expired.Add(1)
			p.ts.ackPending.Add(-1)
			if sp := p.ts.ackSpout; sp != nil {
				cbs = append(cbs, ackCallback{spout: sp, msgID: p.msgID, fail: true})
			}
		}
		for _, p := range s.slots {
			collect(p)
		}
		for _, p := range s.overflow {
			collect(p)
		}
		s.slots = make([]*xorRoot, initShardSlots)
		s.overflow = nil
		s.live = 0
		s.mu.Unlock()
	}
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

// pendingRoots counts live table entries across all shards, for the
// monitor's storm.acker.pending gauge.
func (a *xorAcker) pendingRoots() int {
	n := 0
	for _, s := range a.shards {
		s.mu.Lock()
		n += s.live
		s.mu.Unlock()
	}
	return n
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

// ackBatcher buffers checksum updates per destination — one buffer per
// local shard, one per remote worker — and flushes them on the executor's
// existing triggers (before blocking on input, on exit),
// so the steady state pays one shard lock (or one wire frame) per flush
// instead of per tuple.
type ackBatcher struct {
	ak          *xorAcker
	single      bool // single-worker run: every root is local, skip owner routing
	local       [][]ackUpdate
	remote      [][]ackUpdate
	dirtyShards []int
	dirtyPeers  []int
	// rb is the batcher's reusable resolution scratch: applyShard appends
	// spout callbacks into it and finishResolves drains it, keeping the
	// buffer's capacity across flushes. Owned by the executor goroutine.
	rb resolveBatch
}

func (a *xorAcker) newBatcher() *ackBatcher {
	nw := len(a.r.cfg.peers)
	if nw == 0 {
		nw = 1
	}
	return &ackBatcher{
		ak:     a,
		single: a.workerMask == 0,
		local:  make([][]ackUpdate, len(a.shards)),
		remote: make([][]ackUpdate, nw),
	}
}

func (ab *ackBatcher) push(root, xor uint64, fail bool) {
	a := ab.ak
	if w := a.owner(root); !ab.single && w != int(a.self) {
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
	si := a.shardOf(root)
	buf := ab.local[si]
	if len(buf) == 0 {
		ab.dirtyShards = append(ab.dirtyShards, si)
	}
	ab.local[si] = append(buf, ackUpdate{root: root, xor: xor, fail: fail})
	if len(ab.local[si]) >= ackBatchCap {
		ab.flushShard(si)
	}
}

func (ab *ackBatcher) flushShard(si int) {
	if buf := ab.local[si]; len(buf) > 0 {
		ab.ak.applyShard(si, buf, &ab.rb)
		ab.local[si] = buf[:0]
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

// flush applies every buffered update. A destination may appear twice in
// a dirty list after a capacity-triggered inline flush re-armed it; the
// per-destination flushes are idempotent on empty buffers.
func (ab *ackBatcher) flush() {
	for _, si := range ab.dirtyShards {
		ab.flushShard(si)
	}
	ab.dirtyShards = ab.dirtyShards[:0]
	for _, w := range ab.dirtyPeers {
		ab.flushPeer(w)
	}
	ab.dirtyPeers = ab.dirtyPeers[:0]
}
