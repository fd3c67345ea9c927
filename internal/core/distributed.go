package core

// Rebalancing over the runtime's control plane, one path for 1…N workers.
// Every worker constructs the same topology, rules and Rebalancer, but each
// EsperBolt task's engine lives in exactly one worker process, so preparing
// a target engine must execute on the worker owning the task. Bind turns
// every prepare into a control request to that worker — rt.Control serves
// this worker's own requests inline — and installs the handler that serves
// the requests it receives against its own engines. The rest of a cycle
// needs no worker's help: the swap is local to the Splitter's worker, and
// the ownership change rides the Splitter's edges.
//
// Only the worker hosting the Splitter runs rebalance cycles: it alone
// observes the feed's location rates. The others keep a symmetric
// Rebalancer for routing reads, engine registration and the prepare
// requests they serve.

import (
	"encoding/json"
	"fmt"
	"time"

	"trafficcep/internal/storm"
)

// MethodPrepareTarget is the control-plane method of the prepare requests
// Bind routes and serves.
const MethodPrepareTarget = "core.migrate.prepare"

// prepareOp is the wire form of one prepare request: an engine task and
// the locations it gains, by location field.
type prepareOp struct {
	Task   int                 `json:"task"`
	Gained map[string][]string `json:"gained"`
}

// Bind attaches the rebalancer to the runtime that runs its topology, the
// same way on one worker or on each of N: preparing an engine task becomes a
// control request to the worker the task was placed on; this worker's
// control handler (rt.OnControl, replacing any other) serves those requests
// against its registered engines; and when interval > 0 and this worker
// hosts the Splitter, a skew check (MaybeRebalance) runs every interval
// until Stop. Call it once, before the runtime runs.
func (rb *Rebalancer) Bind(rt *storm.Runtime, interval time.Duration) {
	workerOf := make(map[int]int)
	hostsSplitter := false
	for _, p := range rt.Placements() {
		switch p.Component {
		case CompEsper:
			workerOf[p.TaskIndex] = p.Worker
		case CompSplitter:
			hostsSplitter = hostsSplitter || p.Worker == rt.WorkerID()
		}
	}
	rb.mu.Lock()
	rb.rt, rb.workerOf = rt, workerOf
	rb.mu.Unlock()
	rt.OnControl(rb.serveControl)
	if hostsSplitter && interval > 0 {
		rb.start(interval)
	}
}

// prepareRemote prepares one engine task for the locations it gains, on the
// worker that owns the task: one control request per target.
func (rb *Rebalancer) prepareRemote(task int, gained map[string][]string) error {
	payload, err := json.Marshal(prepareOp{Task: task, Gained: gained})
	if err != nil {
		return err
	}
	worker := rb.workerOf[task]
	if _, err := rb.rt.Control(worker, MethodPrepareTarget, payload); err != nil {
		return fmt.Errorf("core: %s for task %d on worker %d: %w", MethodPrepareTarget, task, worker, err)
	}
	return nil
}

// serveControl serves prepare requests against this worker's engines.
// Other methods return an error.
func (rb *Rebalancer) serveControl(method string, payload []byte) ([]byte, error) {
	if method != MethodPrepareTarget {
		return nil, fmt.Errorf("core: unknown control method %q", method)
	}
	var op prepareOp
	if err := json.Unmarshal(payload, &op); err != nil {
		return nil, fmt.Errorf("core: bad %s payload: %w", method, err)
	}
	return nil, rb.prepareTarget(op.Task, op.Gained)
}
