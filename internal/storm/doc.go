// Package storm is a from-scratch distributed-stream-processing runtime
// with Storm's programming model (§2.1.1 of the paper): topologies of
// spouts and bolts, per-component tasks and executors, stream groupings
// (shuffle, fields, all, global, direct), deterministic assignment of
// executors to worker processes, and a monitor that reports per-bolt
// throughput and latency every 40 seconds the way the paper's enhanced
// Storm does (§5).
//
// # Execution models
//
// By default a Runtime executes the whole topology in one process: every
// executor is a goroutine and the inter-executor hop is a channel send. With
// WithWorker the same topology is split across worker processes: every
// worker builds the identical topology (placement is deterministic), runs
// only the executors placed on it, and ships envelope batches to the others
// over TCP peer links (see tcp.go and wire.go). Liveness between workers is
// tracked with heartbeats; a lost peer fails its in-flight anchored tuples
// and unblocks shutdown.
//
// # Data plane
//
// The runtime owns one data plane, with no plug-in point (see
// transport.go). A hop to an executor in the same process is a channel
// send of the pooled batch. A hop to another worker encodes the batch with a
// length-prefixed wire codec into a pooled frame buffer, queued on the
// runtime's link to that worker; a decoded payload is an ordinary map the
// receiving bolt owns like any other input. Both hops keep per-sender FIFO
// order, which producer-exit accounting and epoch barriers rely on.
//
// # Reliability
//
// Delivery is at-most-once by default. Enabling ack tracking
// (WithAckTimeout) upgrades anchored spout emissions
// (AnchorCollector.EmitAnchored) to at-least-once: the XOR acker keeps one
// checksum per tuple tree — every delivery's edge id is XORed in when the
// edge is created and again when it is consumed — and replays the root on
// failure or timeout with bounded retries, mirroring Storm's reliability
// API. Root ids name their owning worker, so across workers an anchored
// envelope travels untranslated and each worker ships its checksum updates
// straight to the owner; see acker.go. WithAckMode(AckEpoch) replaces
// per-tuple tracking with aligned barrier checkpoints and spout rewind —
// effectively-once for idempotent sinks; see epoch.go. Component invocations are panic-isolated, and the FailFast/Degrade
// failure policies (WithFailurePolicy) choose between surfacing the first
// task error and quarantining repeatedly failing tasks; see faults.go.
//
// Inter-executor transport is batched: emissions buffer per destination
// executor and one transport delivery moves up to WithBatchSize envelopes,
// with pooled batch memory and a zero-allocation fields-grouping hash; see
// batch.go for the flush triggers and the ownership contract.
package storm
