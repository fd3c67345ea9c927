package storm

// The inter-executor transport seam. runtime.go and batch.go route every
// batch delivery through Runtime.tr, so the runtime is agnostic to whether
// the destination executor shares its process (chanTransport, the default)
// or lives in another worker (tcpTransport, see tcp.go). Third-party
// transports implement Transport and are installed with WithTransport; the
// wire codec they may reuse lives in wire.go.

import "fmt"

// Transport moves envelope batches between executors. The runtime calls
// Deliver once per batch (not per tuple), on the emitting executor's
// goroutine, so an implementation adds at most one virtual call per
// WithBatchSize tuples to the hot path.
//
// Ownership contract: Deliver transfers ownership of b. A transport that
// hands the batch to a local executor (Runtime.DeliverLocal) passes
// ownership along — the receiving executor releases the batch to the pool
// after processing it. A transport that serializes the batch onto a wire
// must copy everything it needs during Deliver and then release the batch
// via Runtime.ReleaseBatch before returning; the batch may be reused the
// moment Deliver returns. Symmetrically, a transport injecting received
// batches must decode their payloads into freshly allocated memory and hand
// them to DeliverLocal, never retaining a reference afterwards: the
// receiving bolt may keep a decoded map as long as it likes.
//
// Blocking contract: Deliver may block for backpressure (a full executor
// queue, a full per-peer outbound frame queue). The runtime guarantees the
// flush-before-block rule — an executor only sleeps waiting for input after
// flushing all of its buffered output — so Deliver blocking on a downstream
// queue cannot deadlock an acyclic topology. A transport must preserve
// per-sender FIFO order: two Deliver calls from the same executor to the
// same destination arrive in call order (producer-exit accounting and
// rebalance fences depend on it).
//
// Deliver returns an error only when the batch could not be handed off at
// all (unknown destination, dead peer); the runtime then counts the
// envelopes as dropped and fails their anchored trees. Close releases
// transport resources after the run drains; it must be idempotent.
type Transport interface {
	Deliver(eid int, b *Batch) error
	Close() error
}

// Peer is one directed link to another worker process, as used by the TCP
// transport: a frame writer with the same FIFO guarantee as Transport.
// Frames are opaque length-prefixed blobs (wire.go builds them); Send must
// be safe for concurrent use and must either accept the whole frame for
// in-order delivery or return an error — a successful Send may complete
// asynchronously (the built-in peer queues the frame for its writer
// goroutine), but the frame is then guaranteed to be written or surfaced
// as a link failure, never silently dropped. Alternative peer links (TLS,
// gRPC streams) implement Peer to reuse the built-in membership, heartbeat
// and framing machinery.
type Peer interface {
	// Send ships one complete frame, preserving per-peer FIFO order. The
	// buffer is owned by the caller and may be reused once Send returns:
	// implementations must not retain it.
	Send(frame []byte) error
	Close() error
}

// chanTransport is the in-process fast path: a delivery is exactly the
// pre-transport channel send, with no copying and no serialization.
type chanTransport struct{ r *Runtime }

func (t chanTransport) Deliver(eid int, b *Batch) error { return t.r.DeliverLocal(eid, b) }
func (t chanTransport) Close() error                    { return nil }

// DeliverLocal hands b to the input queue of the executor with dense id
// eid in this process, transferring ownership to it. It blocks when the
// queue is full (backpressure) and is the delivery primitive transports
// use for destinations local to this worker.
func (r *Runtime) DeliverLocal(eid int, b *Batch) error {
	if eid < 0 || eid >= len(r.execs) {
		return fmt.Errorf("storm: deliver to unknown executor %d", eid)
	}
	ex := r.execs[eid]
	if !r.localExec(ex) {
		return fmt.Errorf("storm: executor %d is not local to worker %d", eid, r.cfg.selfWorker)
	}
	ex.deliver(b)
	return nil
}

// ReleaseBatch returns a batch to the runtime's pool. Transports that
// serialize batches instead of handing them to a local executor call this
// once they are done reading the envelopes.
func (r *Runtime) ReleaseBatch(b *Batch) { r.putBatch(b) }

// ExecutorWorkers returns the worker id every dense executor id was placed
// on, for transports that partition destinations into local and remote.
func (r *Runtime) ExecutorWorkers() []int {
	out := make([]int, len(r.execs))
	for i, ex := range r.execs {
		out[i] = ex.worker
	}
	return out
}

// localExec reports whether ex runs in this worker process.
func (r *Runtime) localExec(ex *executor) bool {
	return r.cfg.peers == nil || ex.worker == r.cfg.selfWorker
}

// deliverOrDrop routes one batch through the transport; on a failed
// hand-off every envelope is counted as dropped on the destination
// component and its anchored tree (if any) is failed so the acker can
// replay or expire it.
func (r *Runtime) deliverOrDrop(dest *executor, b *Batch) {
	if err := r.tr.Deliver(dest.eid, b); err != nil {
		r.dropBatch(dest.comp, b, err)
	}
}

// dropBatch accounts for a batch that could not be delivered and releases
// it. Undeliverable tuples surface exactly like routing drops: counted on
// the target component and recorded as the run error under FailFast.
func (r *Runtime) dropBatch(target *runningComponent, b *Batch, cause error) {
	for _, env := range b.envs {
		target.dropped.Add(1)
		if env.tuple.ack != 0 && r.acker != nil {
			// Consume the lost delivery's edge with the fail bit set; the
			// owner (local shard or remote worker) replays or expires the
			// root instead of waiting out its timeout.
			r.acker.apply(env.tuple.ack, env.tuple.edge, true)
		}
	}
	if r.policy != Degrade {
		r.recordErr(fmt.Errorf("storm: dropping %d tuples for %s: %w", len(b.envs), target.spec.id, cause))
	}
	r.putBatch(b)
}
