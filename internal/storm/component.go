// Component model types: tuples, collectors, spouts, bolts and groupings.
// See doc.go for the package overview.
package storm

import (
	"fmt"

	"trafficcep/internal/telemetry"
)

// Tuple is one unit of data flowing through a topology.
type Tuple struct {
	// Stream is the logical stream id ("default" unless EmitTo is used).
	Stream string
	// Values is the tuple payload.
	Values map[string]any
	// Trace is the tuple's telemetry context, stamped by the runtime when
	// a telemetry registry is attached (zero value otherwise). Bolts that
	// re-emit through their Collector propagate it automatically.
	Trace telemetry.TupleTrace

	// ack ties the tuple to its anchored root in the acker (zero when
	// unanchored). Bolts that re-emit propagate it automatically, extending
	// the tuple tree.
	ack uint64
	// edge is this delivery's random edge id in the XOR acker's checksum
	// (zero when unanchored): XORed into the
	// root's checksum once by the emitter and once by the executor that
	// consumes the delivery (see acker.go).
	edge uint64
}

// DefaultStream is the stream id used by plain Emit.
const DefaultStream = "default"

// Collector lets a component emit tuples downstream.
type Collector interface {
	// Emit sends values on the default stream.
	Emit(values map[string]any)
	// EmitTo sends values on a named stream.
	EmitTo(stream string, values map[string]any)
	// EmitDirect sends values on a named stream to one specific task of
	// every bolt subscribed with a direct grouping.
	EmitDirect(stream string, task int, values map[string]any)
}

// DropReporter is implemented by the runtime's collectors. A bolt that
// intentionally discards an input tuple without emitting anything (for
// example the Splitter when the routing table yields no engines) calls
// ReportDrop so the tuple is counted in the task's dropped counter and
// per-edge accounting (emitted upstream = executed + dropped) stays closed
// instead of the tuple silently vanishing.
type DropReporter interface {
	// ReportDrop records one input tuple as intentionally dropped at this
	// task. It does not fail the tuple's anchored tree: the drop is a
	// deterministic routing decision, so a replay could not deliver it
	// either.
	ReportDrop()
}

// TaskContext describes the task an instance is running as.
type TaskContext struct {
	Component string
	TaskID    int // global task id, unique across the topology
	TaskIndex int // index among the component's tasks (0-based)
	NumTasks  int
	Executor  int // executor index within the component
	Worker    int // worker process id
	// ExclusiveInput reports that every tuple delivered to this bolt is
	// delivered to it alone: each stream it subscribes to has no other
	// subscription, and its own grouping hands a tuple to one task
	// (shuffle, fields, global). Computed from the topology at Build. False
	// under an all grouping (every task gets the map), under a direct
	// grouping (the emitter picks the tasks and may pick several), whenever
	// a second bolt reads the same stream, and for spouts.
	//
	// It decides the one rule on input maps, the same whether a map was
	// built in this process or decoded off the wire: a bolt may read
	// t.Values and retain it for as long as it likes (a CEP engine keeps
	// the row in its windows), and may write to it — and re-emit that same
	// map — only when its input is exclusive; otherwise it clones first.
	// An emitter gives a map up when it emits it: it neither writes to it
	// afterwards nor emits it a second time.
	ExclusiveInput bool
}

// Spout is an input source. Open is called once per task before the first
// NextTuple; NextTuple returns false when the source is exhausted; Close is
// called once after the last NextTuple.
type Spout interface {
	Open(ctx TaskContext) error
	NextTuple(col Collector) (bool, error)
	Close() error
}

// ReplayableSpout opts a spout task into epoch-based recovery
// (WithAckMode(AckEpoch), DESIGN.md §8). Checkpoint snapshots the task's
// replay position (typically a source offset) and is called between
// NextTuple calls each time an epoch barrier is injected; Restore rewinds
// the task to a snapshot taken earlier, after which NextTuple must re-emit
// everything past that position. Both run on the task's executor
// goroutine, never concurrently with NextTuple. Spouts that don't
// implement it still run under AckEpoch but restart from wherever they are
// on recovery (at-most-once across a rewind).
type ReplayableSpout interface {
	Spout
	Checkpoint() []byte
	Restore(snapshot []byte)
}

// Bolt encapsulates processing logic. Prepare is called once per task;
// Execute once per input tuple; Cleanup after the last tuple.
type Bolt interface {
	Prepare(ctx TaskContext) error
	Execute(t Tuple, col Collector) error
	Cleanup() error
}

// SpoutFactory builds one Spout instance per task.
type SpoutFactory func() Spout

// BoltFactory builds one Bolt instance per task.
type BoltFactory func() Bolt

// GroupingType selects how tuples are routed to a bolt's tasks.
type GroupingType int

// Grouping types.
const (
	// ShuffleGrouping distributes tuples round-robin over tasks.
	ShuffleGrouping GroupingType = iota
	// FieldsGrouping routes by hash of the named fields, so equal keys
	// always reach the same task.
	FieldsGrouping
	// AllGrouping replicates every tuple to every task.
	AllGrouping
	// GlobalGrouping routes every tuple to the lowest task.
	GlobalGrouping
	// DirectGrouping delivers to the task chosen by EmitDirect.
	DirectGrouping
)

func (g GroupingType) String() string {
	switch g {
	case ShuffleGrouping:
		return "shuffle"
	case FieldsGrouping:
		return "fields"
	case AllGrouping:
		return "all"
	case GlobalGrouping:
		return "global"
	case DirectGrouping:
		return "direct"
	}
	return fmt.Sprintf("GroupingType(%d)", int(g))
}

// Grouping is one subscription of a bolt to an upstream component's stream.
type Grouping struct {
	Source string
	Stream string // "" means DefaultStream
	Type   GroupingType
	Fields []string // for FieldsGrouping
}
