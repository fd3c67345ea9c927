package storm

// Batched inter-executor transport and the zero-allocation routing path.
// At the rates the paper targets (§5) a channel operation, a collector
// allocation or a hasher allocation per tuple per hop would dominate the
// pipeline, so:
//
//   - Emissions buffer per destination executor in an outBatcher and travel
//     as *batch values — one channel operation moves up to BatchSize
//     envelopes. Buffers flush when full, when a spout-side envelope has
//     waited past BatchTimeout (checked between NextTuple calls), when a
//     bolt's input queue goes idle, at an epoch barrier, and always before
//     an executor exits —
//     so batching never strands a tuple and never deadlocks: an executor
//     only sleeps on input with its output buffers empty. Markers — epoch
//     barriers and the end of an executor's stream — ride the same queues
//     as batches with no envelopes that name their sender and carry its
//     mark. Under the XOR
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
//     hashed with an inlined FNV-1a, routing byte-for-byte as fnv.New32a()
//     over fmt.Fprintf("%v\x1f", v) would; the regression test in
//     batch_test.go pins the equivalence.
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
	// mark, when non-zero, makes the batch a marker with no envelopes: the
	// executor src has passed epoch mark on this edge (an epoch barrier,
	// AckEpoch only, see epoch.go), or with markEnd it ended its stream.
	// Markers ride the same FIFO queues as data, so a marker's arrival
	// proves every earlier delivery from src is ahead of it.
	mark uint64
	src  int
}

// markEnd is the mark of an ended edge: past every epoch, so an ended
// input never holds back the lowest mark over an executor's inputs.
const markEnd = ^uint64(0)

func (r *Runtime) getBatch() *batch { return r.batchPool.Get().(*batch) }

// putBatch returns a batch to the pool. Envelopes are cleared first so the
// pool does not pin tuple payload maps or trace contexts.
func (r *Runtime) putBatch(b *batch) {
	clear(b.envs)
	b.envs = b.envs[:0]
	b.mark = 0
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
	// first is the start of the spout NextTuple call that buffered into
	// an empty batcher, stamped by the spout executor; bolts flush on an
	// idle input queue and never read it.
	first time.Time
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
// size envelopes. The tuple is copied exactly once — into the buffer slot —
// with edge written onto that copy (t is shared across the emission's sends
// and must not be mutated).
func (o *outBatcher) add(dest *executor, local int, t *Tuple, edge uint64) {
	b := o.bufs[dest.eid]
	if b == nil {
		b = o.newBuf(dest)
	}
	b.envs = append(b.envs, envelope{local: local, tuple: *t})
	b.envs[len(b.envs)-1].tuple.edge = edge
	if len(b.envs) >= o.size {
		o.bufs[dest.eid] = nil
		o.r.deliverOrDrop(dest, b)
	}
}

// newBuf starts a fresh buffer for dest and marks it dirty.
func (o *outBatcher) newBuf(dest *executor) *batch {
	b := o.r.getBatch()
	o.bufs[dest.eid] = b
	if !o.queued[dest.eid] {
		o.queued[dest.eid] = true
		o.dests = append(o.dests, dest)
	}
	return b
}

// flushAll sends every pending buffer and resets the dirty set.
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
}

// maybeFlush flushes when the NextTuple call that first buffered since the
// last flush started at least the batch timeout ago. Spout executors call
// it between NextTuple invocations with the clock reading they already
// sampled for latency accounting.
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
