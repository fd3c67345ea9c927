package storm

// The inter-executor data plane. Every batch delivery goes through
// deliverOrDrop: a destination executor in this process takes the batch
// with one channel send, and one placed on another worker is encoded with
// the wire codec (wire.go) and queued on the runtime's link to that worker
// (peerLinks, tcp.go), which is nil in a single-process run. Both hops keep
// per-sender FIFO order: two batches from one executor to one destination
// arrive in send order, which end-of-stream markers, epoch barriers and the
// in-band ownership changes of a rebalance rely on.

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

// forward sends one marker from comp to every downstream executor: an
// epoch barrier, or with end set the end of the sender's stream, carrying
// under AckEpoch the last epoch the sender passed. It MUST run on the
// sending executor's goroutine with its output buffers flushed: per-channel
// and per-peer FIFO is what makes a marker prove every earlier envelope
// from its sender is ahead of it. A marker bypasses executor.deliver, so
// storm.<comp>.batches counts data batches only.
func (r *Runtime) forward(comp *runningComponent, epoch uint64, end bool) {
	for _, dest := range comp.down {
		if r.localExec(dest) {
			dest.in <- r.marker(epoch, end)
			continue
		}
		if p := r.links.peers[dest.worker]; p != nil {
			eid := dest.eid
			_ = p.sendSmall(func(b []byte) []byte { return appendMarkerFrame(b, eid, epoch, end) })
		}
	}
}

func (r *Runtime) marker(epoch uint64, end bool) *batch {
	b := r.getBatch()
	b.epoch, b.end = epoch, end
	return b
}
