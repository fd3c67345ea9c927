package storm

// The inter-executor data plane. Every batch delivery goes through
// deliverOrDrop: a destination executor in this process takes the batch
// with one channel send, and one placed on another worker is encoded with
// the wire codec (wire.go) and queued on the runtime's link to that worker
// (peerLinks, tcp.go), which is nil in a single-process run. Both hops keep
// per-sender FIFO order: two batches from one executor to one destination
// arrive in send order, which markers and the in-band ownership changes of
// a rebalance rely on. A marker names its sender and carries a mark, an
// epoch barrier or markEnd for the end of its stream; a bolt executor keeps
// one mark per input edge, and the lowest decides alignment and its own end
// (see forward and inputMarks).

import (
	"fmt"
	"slices"
)

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

// forward sends mark from ex to every downstream executor: an epoch
// barrier, or markEnd at the end of ex's stream. It MUST run on ex's
// goroutine with its output buffers flushed: per-channel and per-peer FIFO
// is what makes a marker prove every earlier envelope from its sender is
// ahead of it. A marker bypasses executor.deliver, so storm.<comp>.batches
// counts data batches only.
func (r *Runtime) forward(ex *executor, mark uint64) {
	for _, dest := range ex.comp.down {
		if r.localExec(dest) {
			dest.in <- r.marker(ex.eid, mark)
			continue
		}
		if p := r.links.peers[dest.worker]; p != nil {
			_ = p.sendSmall(func(b []byte) []byte { return appendMarkerFrame(b, dest.eid, ex.eid, mark) })
		}
	}
}

func (r *Runtime) marker(src int, mark uint64) *batch {
	b := r.getBatch()
	b.src, b.mark = src, mark
	return b
}

// inputMarks starts a bolt executor's mark per input edge, indexed by the
// sender's eid: 0 on each executor feeding dest, markEnd on every other.
// The lowest mark is then the epoch every input has passed, and markEnd
// once every input ended.
func (r *Runtime) inputMarks(dest *executor) []uint64 {
	marks := make([]uint64, len(r.execs))
	for i, src := range r.execs {
		if !slices.Contains(src.comp.down, dest) {
			marks[i] = markEnd
		}
	}
	return marks
}
