package core

// Rule migration over the runtime's control plane, one path for 1…N
// workers. Every worker constructs the same topology, rules and Rebalancer,
// but each EsperBolt task's engine lives in exactly one worker process, so
// the migration steps of a routing swap (PrepareTarget before,
// ReleaseSource after) must execute on the worker owning the task. Bind
// turns every step into a control request to that worker — rt.Control
// serves this worker's own requests inline — and installs the handler that
// applies the requests it receives to its own RuleMigrator.
//
// Only the worker hosting the Splitter runs rebalance cycles: it alone
// observes the feed's location rates. The others keep a symmetric
// Rebalancer for routing reads, engine registration and the migration
// requests they serve.

import (
	"encoding/json"
	"fmt"
	"time"

	"trafficcep/internal/storm"
)

// Control-plane methods of the migration requests Bind routes and serves.
const (
	MethodPrepareTarget = "core.migrate.prepare"
	MethodReleaseSource = "core.migrate.release"
)

// migrationOp is the wire form of one per-task migration step.
type migrationOp struct {
	Task      int      `json:"task"`
	Field     string   `json:"field"`
	Locations []string `json:"locations"`
}

// Bind attaches the rebalancer to the runtime that runs its topology, the
// same way on one worker or on each of N: every migration step on an
// engine task becomes a control request to the worker the task was placed
// on; this worker's control handler (rt.OnControl, replacing any other)
// serves those requests against the rebalancer's migrator; the post-swap
// drain is rt.DrainComponent(CompEsper); and when interval > 0 and this
// worker hosts the Splitter, a skew check (MaybeRebalance) runs every
// interval until Stop. Call it once, before the runtime runs.
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
	if rb.migrator != nil {
		rt.OnControl(migrationHandler(rb.migrator))
	}
	if hostsSplitter && interval > 0 {
		rb.start(interval)
	}
}

// migrate returns the migration step of method, run on the worker that
// owns the engine task.
func (rb *Rebalancer) migrate(method string) func(task int, field string, locations []string) error {
	return func(task int, field string, locations []string) error {
		payload, err := json.Marshal(migrationOp{Task: task, Field: field, Locations: locations})
		if err != nil {
			return err
		}
		worker := rb.workerOf[task]
		if _, err := rb.rt.Control(worker, method, payload); err != nil {
			return fmt.Errorf("core: %s for task %d on worker %d: %w", method, task, worker, err)
		}
		return nil
	}
}

// migrationHandler serves migration requests against this worker's
// migrator. Unknown methods return an error.
func migrationHandler(m *RuleMigrator) func(method string, payload []byte) ([]byte, error) {
	return func(method string, payload []byte) ([]byte, error) {
		var op migrationOp
		if err := json.Unmarshal(payload, &op); err != nil {
			return nil, fmt.Errorf("core: bad %s payload: %w", method, err)
		}
		switch method {
		case MethodPrepareTarget:
			return nil, m.PrepareTarget(op.Task, op.Field, op.Locations)
		case MethodReleaseSource:
			return nil, m.ReleaseSource(op.Task, op.Field, op.Locations)
		}
		return nil, fmt.Errorf("core: unknown control method %q", method)
	}
}
