package storm

// The inter-executor data plane. Every batch delivery goes through
// deliverOrDrop: a destination executor in this process takes the batch
// with one channel send, and one placed on another worker is encoded with
// the wire codec (wire.go) and queued on the runtime's link to that worker
// (peerLinks, tcp.go), which is nil in a single-process run. Both hops keep
// per-sender FIFO order: two batches from one executor to one destination
// arrive in send order, which producer-exit accounting, epoch barriers
// and the in-band ownership changes of a rebalance rely on.

import "fmt"

// localExec reports whether ex runs in this worker process.
func (r *Runtime) localExec(ex *executor) bool {
	return r.cfg.peers == nil || ex.worker == r.cfg.selfWorker
}

// deliverOrDrop hands one batch to its destination executor, transferring
// ownership: a local executor releases it after processing, and a send to a
// peer releases it once encoded. It may block for backpressure (a full
// executor queue, a full per-peer outbound queue). On a failed hand-off
// every envelope is counted as dropped on the destination component and
// its anchored tree (if any) is failed so the acker can replay or expire
// it.
func (r *Runtime) deliverOrDrop(dest *executor, b *batch) {
	if r.localExec(dest) {
		dest.deliver(b)
		return
	}
	if err := r.links.send(dest, b); err != nil {
		r.dropBatch(dest.comp, b, err)
	}
}

// dropBatch accounts for a batch that could not be delivered and releases
// it. Undeliverable tuples surface exactly like routing drops: counted on
// the target component and recorded as the run error under FailFast.
func (r *Runtime) dropBatch(target *runningComponent, b *batch, cause error) {
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
