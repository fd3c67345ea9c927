package telemetry

// TupleTrace is the per-tuple trace context that rides tuple metadata
// through a topology: the spout stamps StartNanos at emission, every
// downstream emission carries it and re-stamps EmitNanos. Receivers observe
//
//	now - EmitNanos  → per-hop latency (queue wait + transport)
//	now - StartNanos → end-to-end latency at the sink
//
// The trace is a small value type copied into every emitted tuple rather
// than a shared pointer: fan-out groupings replicate tuples across
// executors, and a shared mutable trace would race.
type TupleTrace struct {
	StartNanos int64 `json:"start"`
	EmitNanos  int64 `json:"emit"`
}

// StartTrace begins a trace at the given wall-clock nanosecond timestamp
// (use time.Now().UnixNano(); injected for testability).
func StartTrace(nowNanos int64) TupleTrace {
	return TupleTrace{StartNanos: nowNanos, EmitNanos: nowNanos}
}

// Active reports whether the trace was started (the zero TupleTrace means
// tracing is disabled for this tuple).
func (t TupleTrace) Active() bool { return t.StartNanos != 0 }

// Next derives the trace carried by a tuple emitted at nowNanos while
// processing the traced tuple: same origin, fresh emission stamp.
func (t TupleTrace) Next(nowNanos int64) TupleTrace {
	return TupleTrace{StartNanos: t.StartNanos, EmitNanos: nowNanos}
}
