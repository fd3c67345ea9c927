package storm

// Batched inter-executor transport and the zero-allocation routing path.
//
// The original data plane paid one channel send/receive, one collector
// allocation and one heap-allocated FNV hasher per tuple per hop; at the
// rates the paper targets (§5) those fixed costs dominate the pipeline. This
// file amortizes and removes them:
//
//   - Emissions buffer per destination executor in an outBatcher and travel
//     as *batch values — one channel operation moves up to BatchSize
//     envelopes. Buffers flush when full, when a spout-side envelope has
//     waited past BatchTimeout (checked between NextTuple calls), when a
//     bolt's input queue goes idle, at an epoch barrier, and always before
//     an executor exits —
//     so batching never strands a tuple and never deadlocks: an executor
//     only sleeps on input with its output buffers empty. Under the XOR
//     acker the same triggers also drain the executor's buffered ack
//     updates (acker.go's ackBatcher), so checksum progress is never
//     stranded behind an idle bolt either.
//   - Batches come from a sync.Pool with a receiver-releases ownership
//     contract: the sending side hands the batch to the destination
//     executor's channel and never touches it again; the receiving executor
//     returns it to the pool after processing every envelope. Replayed ack
//     roots are copied out of transport-owned memory by the acker (see
//     acker.go), so pool reuse cannot corrupt them.
//   - Fields-grouping keys are rendered into a reused scratch buffer and
//     hashed with an inlined FNV-1a instead of fnv.New32a() + fmt.Fprintf
//     per tuple, and each subscription memoizes its last key → task index so
//     runs of tuples sharing a key (per-vehicle bursts) skip the hash
//     entirely. Routing is byte-for-byte identical to the old path; the
//     regression test in batch_test.go pins the equivalence.
//
// WithBatchSize(1) restores per-tuple transport (every envelope ships in its
// own pooled single-entry batch) for ablation; all accounting — ack trees,
// panic isolation, quarantine drops, tracing, emitted == executed + dropped —
// is per envelope and therefore identical in both modes.

import (
	"fmt"
	"strconv"
	"time"
)

// batch is the unit of inter-executor transport: a pooled slice of
// envelopes. Ownership passes at send time to the receiving executor, which
// releases it via putBatch after the last envelope is processed, or to the
// peer link, which releases it once the envelopes are encoded (see
// deliverOrDrop).
type batch struct {
	envs []envelope
	// epoch, when non-zero, marks an aligned epoch barrier (AckEpoch, see
	// epoch.go): no envelopes, just the epoch number. The receiving
	// executor counts it against its upstream-arrival expectation and
	// forwards the barrier once aligned. Rides the same FIFO channels as
	// data, so a barrier's arrival proves every pre-barrier delivery from
	// that input is ahead of it.
	epoch uint64
	// epochRetire repurposes the barrier batch as an in-band retirement
	// notice: epoch carries the sender's last passed epoch (possibly 0)
	// and the receiver exempts that upstream from the alignment
	// expectation of every later epoch.
	epochRetire bool
}

func (r *Runtime) getBatch() *batch { return r.batchPool.Get().(*batch) }

// putBatch returns a batch to the pool. Envelopes are cleared first so the
// pool does not pin tuple payload maps or trace contexts.
func (r *Runtime) putBatch(b *batch) {
	clear(b.envs)
	b.envs = b.envs[:0]
	b.epoch = 0
	b.epochRetire = false
	r.batchPool.Put(b)
}

// outBatcher accumulates one sending executor's emissions per destination
// executor. It is owned by that executor's goroutine and never shared; the
// acker's replay collector bypasses it (taskCollector.out == nil) and
// ships single-envelope batches immediately instead.
type outBatcher struct {
	r       *Runtime
	size    int
	timeout time.Duration
	bufs    []*batch // pending buffer per destination executor id
	queued  []bool   // dests membership per destination executor id
	dests   []*executor
	first   time.Time // clock at the first buffered envelope since the last flush
	// pinned, when non-nil, holds an envelope whose edge id the in-flight
	// Execute call may still rewrite (XOR acker edge chaining): add grows
	// the batch past the size cap instead of shipping it mid-call. The
	// executor clears the pin when the call settles.
	pinned *batch
}

func (r *Runtime) newOutBatcher() *outBatcher {
	return &outBatcher{
		r:       r,
		size:    r.batchSize,
		timeout: r.batchTimeout,
		bufs:    make([]*batch, len(r.execs)),
		queued:  make([]bool, len(r.execs)),
	}
}

// add buffers one envelope for dest, sending the buffer as soon as it holds
// size envelopes. now is the caller's already-sampled clock reading (the
// executor's call-start timestamp), so buffering costs no clock reads.
// The tuple is copied exactly once — into the buffer slot — with edge
// written onto that copy (t is shared across the emission's sends and must
// not be mutated).
func (o *outBatcher) add(dest *executor, local int, t *Tuple, edge uint64, now time.Time) {
	b := o.bufs[dest.eid]
	if b == nil {
		b = o.r.getBatch()
		o.bufs[dest.eid] = b
		if !o.queued[dest.eid] {
			o.queued[dest.eid] = true
			if len(o.dests) == 0 {
				o.first = now
			}
			o.dests = append(o.dests, dest)
		}
	}
	b.envs = append(b.envs, envelope{local: local, tuple: *t})
	b.envs[len(b.envs)-1].tuple.edge = edge
	if len(b.envs) >= o.size && b != o.pinned {
		o.bufs[dest.eid] = nil
		o.r.deliverOrDrop(dest, b)
	}
}

// pin readies dest's buffer for an edge-chained envelope and pins it: the
// caller appends the envelope itself (keeping the copy inline at the call
// site) and the batch stays unshipped until the executor unpins it after
// the Execute call settles, so a late error can retarget the envelope onto
// a fresh edge id before it ships. A full buffer ships before the pin (the
// previous pin is gone by now — it cleared when that call settled), so
// pinning never grows batches past the cap in the steady state.
func (o *outBatcher) pin(dest *executor, now time.Time) *batch {
	b := o.bufs[dest.eid]
	if b != nil && len(b.envs) >= o.size {
		o.bufs[dest.eid] = nil
		o.r.deliverOrDrop(dest, b)
		b = nil
	}
	if b == nil {
		b = o.newBuf(dest, now)
	}
	o.pinned = b
	return b
}

// newBuf starts a fresh buffer for dest and marks it dirty.
func (o *outBatcher) newBuf(dest *executor, now time.Time) *batch {
	b := o.r.getBatch()
	o.bufs[dest.eid] = b
	if !o.queued[dest.eid] {
		o.queued[dest.eid] = true
		if len(o.dests) == 0 {
			o.first = now
		}
		o.dests = append(o.dests, dest)
	}
	return b
}

// flushAll sends every pending buffer and resets the dirty set. It runs
// only between Execute calls — on an idle input queue, at an epoch
// barrier, at exit — where no edge chain is pinned: the executor
// unpins when a call settles. The pin is cleared here all the same, since
// after a full flush no buffer remains to be pinned, and a stale pin must
// not alias a recycled batch on the next add.
func (o *outBatcher) flushAll() {
	for _, dest := range o.dests {
		o.queued[dest.eid] = false
		b := o.bufs[dest.eid]
		if b == nil {
			continue
		}
		o.bufs[dest.eid] = nil
		o.r.deliverOrDrop(dest, b)
	}
	o.dests = o.dests[:0]
	o.pinned = nil
}

// maybeFlush flushes when the oldest buffered envelope has waited at least
// the batch timeout. Spout executors call it between NextTuple invocations
// with the clock reading they already sampled for latency accounting.
func (o *outBatcher) maybeFlush(now time.Time) {
	if len(o.dests) > 0 && now.Sub(o.first) >= o.timeout {
		o.flushAll()
	}
}

// --- fields-grouping key rendering and hashing ---

// FNV-1a constants, identical to hash/fnv's 32-bit variant.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv1a is hash/fnv's New32a inlined over a byte slice, so the fields
// grouping pays no hasher allocation per tuple.
func fnv1a(b []byte) uint32 {
	h := uint32(fnvOffset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return h
}

// appendFieldValue appends fmt's %v rendering of v to dst. The fast paths
// cover the payload types the topology actually emits byte-for-byte
// identically to fmt (pinned by the routing-stability test in
// batch_test.go); anything else falls back to fmt itself, so routing is
// stable across the inlining for every type.
func appendFieldValue(dst []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "<nil>"...)
	case string:
		return append(dst, x...)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case uint64:
		return strconv.AppendUint(dst, x, 10)
	case bool:
		return strconv.AppendBool(dst, x)
	case float32:
		return strconv.AppendFloat(dst, float64(x), 'g', -1, 32)
	}
	return fmt.Appendf(dst, "%v", v)
}

// appendFieldsKey renders a grouping key: each field's %v rendering followed
// by a 0x1f separator — the exact byte stream the pre-batching code fed to
// fnv.New32a via fmt.Fprintf("%v\x1f", v). Absent fields render as <nil>
// (funneling tuples missing the same fields to one task) and set *missing.
func appendFieldsKey(dst []byte, fields []string, values map[string]any, missing *bool) []byte {
	for _, f := range fields {
		v, ok := values[f]
		if !ok {
			*missing = true
		}
		dst = appendFieldValue(dst, v)
		dst = append(dst, 0x1f)
	}
	return dst
}

// fieldsCacheEntry memoizes one subscription's last grouping key and the
// task index it hashed to (before quarantine probing, which is applied per
// delivery), so consecutive tuples sharing a key resolve without hashing.
type fieldsCacheEntry struct {
	key []byte
	idx int
}
