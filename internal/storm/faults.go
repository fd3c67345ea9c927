package storm

// Fault tolerance for the runtime: panic isolation, the Storm-style
// ack/replay reliability machinery, and failure policies.
//
// Storm's production deployments lean on three mechanisms the paper takes
// for granted: supervised workers (a crashing bolt does not kill the
// topology), the acker (every spout tuple is tracked through the tuple tree
// and replayed on loss), and operator-visible failure accounting. This file
// supplies all three for this runtime:
//
//   - Every user callback (Open/NextTuple/Close, Prepare/Execute/Cleanup)
//     runs behind a recover that converts a panic into a *PanicError
//     carrying the stack, counted under storm.<comp>.panics.
//   - Spouts may emit *anchored* tuples with a message id (EmitAnchored).
//     The XOR acker (acker.go) follows the tuple tree and acks the spout
//     when it drains cleanly, or replays the root tuple with exponential
//     backoff when a hop fails, drops it, or the tree times out. After
//     MaxRetries the tuple expires: it is counted as dropped and the
//     spout's Fail callback fires. AckEpoch (epoch.go) replaces per-tuple
//     tracking with barrier checkpoints and spout rewind.
//   - A FailurePolicy decides what a task error means: FailFast (default,
//     the runtime's historical behavior) records it as the run error;
//     Degrade counts it, and after QuarantineAfter consecutive errors the
//     task is quarantined — groupings route around it and its queued
//     envelopes are counted as dropped — so one poisoned task degrades the
//     component instead of failing the run.
//
// Delivery remains at-most-once for plain emissions; anchored emissions are
// at-least-once (a timeout replay can duplicate a tuple that was merely
// slow, exactly like Storm's acker).

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"
)

// FailurePolicy selects how the runtime treats task-level failures
// (errors and recovered panics in user callbacks).
type FailurePolicy int

const (
	// FailFast records the first task error as the run error (Run still
	// drains the topology). This is the historical behavior and the default.
	FailFast FailurePolicy = iota
	// Degrade counts task errors without failing the run; after
	// QuarantineAfter consecutive errors a task is quarantined: groupings
	// route around it, envelopes already queued to it are counted as
	// dropped, and the monitor reports it under storm.<comp>.quarantined.
	Degrade
)

func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "failfast"
	case Degrade:
		return "degrade"
	}
	return fmt.Sprintf("FailurePolicy(%d)", int(p))
}

// PanicError is a panic recovered from a component callback, converted into
// a per-task error so one bad tuple degrades a task instead of crashing the
// process.
type PanicError struct {
	Component string
	TaskID    int
	Op        string // the callback that panicked: Open, NextTuple, Execute, ...
	Value     any    // the recovered panic value
	Stack     []byte // debug.Stack() at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("storm: %s task %d: panic in %s: %v", e.Component, e.TaskID, e.Op, e.Value)
}

// AnchorCollector is implemented by the runtime's spout collectors. Spouts
// that want at-least-once delivery type-assert their Collector and emit
// anchored tuples; when ack tracking is disabled (no WithAckTimeout) or the
// collector belongs to a bolt, EmitAnchored behaves exactly like Emit.
type AnchorCollector interface {
	Collector
	// EmitAnchored emits values on the default stream anchored under msgID:
	// the runtime tracks the tuple tree and replays the tuple on failure.
	EmitAnchored(msgID string, values map[string]any)
	// Acking reports whether anchored emissions are actually tracked, so
	// spouts can skip building message ids when tracking is off.
	Acking() bool
}

// DirectAnchorCollector extends AnchorCollector with an anchored direct
// emit. Plain EmitDirect from a spout has no way to register the tuple with
// the acker (EmitAnchored only serves non-direct subscriptions), so a
// spout feeding a direct-grouped bolt silently lost at-least-once delivery.
// EmitDirectAnchored closes that hole: on a tracking spout collector it
// begins a tracked tuple tree rooted at msgID and delivers to the chosen
// task of every direct-grouped subscription; on bolt collectors it behaves
// like EmitDirect, riding the input tuple's existing tree (msgID ignored).
type DirectAnchorCollector interface {
	AnchorCollector
	// EmitDirectAnchored emits values on stream to one specific task of
	// every direct-grouped subscription, anchored under msgID.
	EmitDirectAnchored(msgID, stream string, task int, values map[string]any)
}

// AckingSpout is optionally implemented by spouts emitting anchored tuples.
// Ack is invoked when a tuple's tree fully drains without failure; Fail when
// the tuple expired after MaxRetries replays (or the run was cancelled).
// Both may be called from runtime goroutines concurrently with NextTuple.
type AckingSpout interface {
	Spout
	Ack(msgID string)
	Fail(msgID string)
}

// FaultTotals sums the runtime's fault counters across all components.
type FaultTotals struct {
	Panics       uint64
	Replays      uint64
	Acked        uint64
	Dropped      uint64 // skipped envelopes + routing drops + expired anchors
	Quarantined  uint64
	MissingField uint64
}

// FaultTotals returns the whole-run fault counters. The same values are
// published per component into an attached telemetry registry as
// storm.<comp>.{panics,replays,acked,dropped,quarantined,missing_field}.
func (r *Runtime) FaultTotals() FaultTotals {
	var ft FaultTotals
	for _, rc := range r.comps {
		ft.Panics += rc.panics.Load()
		ft.Replays += rc.replays.Load()
		ft.Acked += rc.acked.Load()
		ft.Quarantined += rc.quarantinedN.Load()
		ft.MissingField += rc.missingField.Load()
		ft.Dropped += rc.dropped.Load() + rc.expired.Load()
		for _, ts := range rc.tasks {
			ft.Dropped += ts.dropped.Load()
		}
	}
	return ft
}

// quarantine marks a task as quarantined (idempotently) and publishes the
// fact on its component so grouping routes can skip it.
func (r *Runtime) quarantine(rc *runningComponent, ts *taskState) {
	if ts.quarantined.Swap(true) {
		return
	}
	rc.anyQuarantined.Store(true)
	rc.quarantinedN.Add(1)
}

// taskFailed applies the failure policy to one task error: FailFast records
// it as the run error; Degrade counts consecutive errors toward quarantine.
// It returns true when the task was quarantined by this failure.
func (r *Runtime) taskFailed(rc *runningComponent, ts *taskState, err error) bool {
	ts.errors.Add(1)
	if r.policy != Degrade {
		r.recordErr(err)
		return false
	}
	ts.consecErr++
	if ts.consecErr >= r.quarK && !ts.quarantined.Load() {
		r.quarantine(rc, ts)
		return true
	}
	return false
}

// --- panic-isolating callback wrappers ---
//
// Cold lifecycle calls (Open/Close/Prepare/Cleanup) each run behind their
// own recover. The hot per-tuple calls (NextTuple/Execute) are guarded at
// the executor-loop level in runtime.go instead, so the steady-state path
// pays no defer.

func (r *Runtime) panicErr(rc *runningComponent, ts *taskState, op string, v any) *PanicError {
	rc.panics.Add(1)
	return &PanicError{Component: rc.spec.id, TaskID: ts.ctx.TaskID, Op: op, Value: v, Stack: debug.Stack()}
}

func (r *Runtime) spoutOpen(rc *runningComponent, ts *taskState) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.panicErr(rc, ts, "Open", p)
		}
	}()
	return ts.spout.Open(ts.ctx)
}

func (r *Runtime) spoutClose(rc *runningComponent, ts *taskState) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.panicErr(rc, ts, "Close", p)
		}
	}()
	return ts.spout.Close()
}

func (r *Runtime) boltPrepare(rc *runningComponent, ts *taskState) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.panicErr(rc, ts, "Prepare", p)
		}
	}()
	return ts.bolt.Prepare(ts.ctx)
}

func (r *Runtime) boltCleanup(rc *runningComponent, ts *taskState) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.panicErr(rc, ts, "Cleanup", p)
		}
	}()
	return ts.bolt.Cleanup()
}

// --- replay schedule ---

// backoffFor is the XOR acker's replay backoff schedule: timeout <<
// retries, with the shift clamped and the product saturated. Without the
// saturation a large WithAckTimeout (or a caller-supplied huge retry count
// before the clamp) overflows int64 into a negative backoff, which produces
// already-expired deadlines that replay in a hot loop.
func backoffFor(timeout time.Duration, retries int) time.Duration {
	shift := uint(retries)
	if shift > 10 {
		shift = 10
	}
	// Saturate at MaxInt64>>1 so deadline arithmetic (now + backoff) still
	// has headroom.
	if timeout > math.MaxInt64>>(shift+1) {
		return math.MaxInt64 >> 1
	}
	return timeout << shift
}

// sweepTick is the XOR acker's deadline sweeper interval: timeout/4,
// clamped to [1ms, 100ms]. The 1ms floor is the acking granularity
// documented on WithAckTimeout (config.fill rounds smaller timeouts up to
// it, so a deadline fires at most one timeout late); the 100ms ceiling
// bounds expiry latency under huge timeouts.
func sweepTick(timeout time.Duration) time.Duration {
	tick := timeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	return tick
}
