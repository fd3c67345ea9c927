package storm

import (
	"net"
	"time"

	"trafficcep/internal/telemetry"
)

// Option configures a Runtime at construction. Options are the only way to
// configure a runtime: call sites name exactly the knobs they set and new
// knobs never break existing callers.
type Option func(*config)

// withChannelBuffer sets the per-executor input queue length; sends block
// when full, providing backpressure.
func withChannelBuffer(n int) Option { return func(c *config) { c.ChannelBuffer = n } }

// WithTelemetry attaches a telemetry registry: the runtime records per-hop
// (emitter batch arrival → receiver batch arrival) and end-to-end (spout
// emission → arrival at the sink) tuple latency histograms from the clock
// readings it already takes per batch, and the monitor is registered as a
// telemetry.Source publishing per-component counters.
func WithTelemetry(reg *telemetry.Registry) Option { return func(c *config) { c.Telemetry = reg } }

// WithFailurePolicy selects how task errors and recovered panics are
// handled: FailFast (the default) records the first one as the run error,
// Degrade absorbs them into the counters and quarantines tasks that fail
// repeatedly.
func WithFailurePolicy(p FailurePolicy) Option { return func(c *config) { c.FailurePolicy = p } }

// withQuarantineAfter sets how many consecutive errors quarantine a task
// under the Degrade policy. Defaults to 5.
func withQuarantineAfter(k int) Option { return func(c *config) { c.QuarantineAfter = k } }

// WithAckTimeout enables ack tracking for anchored spout emissions: a tuple
// tree not fully processed within d — or failed at any hop — is replayed
// with exponential backoff. Zero (the default) keeps the reliability
// machinery, and its hot-path cost, entirely off.
//
// Granularity: timeouts are enforced by a sweeper ticking every d/4,
// clamped to [1ms, 100ms], so a replay or expiry fires up to one tick
// after its deadline. Values below 1ms are rounded up to 1ms — the
// sweeper cannot honor sub-millisecond deadlines, and silently accepting
// them would fire replays up to 4× late relative to the requested d.
func WithAckTimeout(d time.Duration) Option { return func(c *config) { c.AckTimeout = d } }

// WithMaxRetries bounds replays per anchored tuple; past it the tuple
// expires as dropped and the spout's Fail callback fires. Defaults to 3.
func WithMaxRetries(n int) Option { return func(c *config) { c.MaxRetries = n } }

// WithAckMode selects the ack-tracking engine used when WithAckTimeout is
// set. AckXOR (the default) tracks each anchored tree as a single rotating
// XOR checksum in one locked table — O(1) state per root, updates
// batched onto the existing transport: per-tuple at-least-once for
// any spout. AckEpoch drops per-tuple tracking entirely: aligned epoch
// barriers flow through the topology and the runtime rewinds
// ReplayableSpouts to the last committed epoch on loss — effectively-once
// for idempotent sinks. See DESIGN.md "Reliability" and WithEpochInterval.
func WithAckMode(m AckMode) Option { return func(c *config) { c.AckMode = m } }

// WithEpochInterval sets how often the epoch coordinator opens a new epoch
// under WithAckMode(AckEpoch): each tick injects aligned barriers at every
// spout, and the epoch commits once every executor on every worker has
// passed its barrier with no tuple loss since the previous one. Shorter
// intervals bound the replay window (and the duplicate burst an idempotent
// sink absorbs after a rewind) at the cost of more barrier traffic.
// Defaults to 100ms; values below 1ms are rounded up to 1ms. Setting it
// under any other ack mode is a configuration error.
func WithEpochInterval(d time.Duration) Option { return func(c *config) { c.EpochInterval = d } }

// WithBatchSize sets how many envelopes the inter-executor transport packs
// into one channel send (see batch.go for the flush triggers and ownership
// contract). Defaults to 64; 1 restores per-tuple transport for ablation.
// Accounting — ack trees, tracing, emitted == executed + dropped — is per
// envelope and identical at every batch size.
func WithBatchSize(n int) Option { return func(c *config) { c.BatchSize = n } }

// WithBatchTimeout bounds how long a spout-side emission may wait in a
// partially filled batch; it is checked between NextTuple calls. Bolt-side
// buffers flush whenever the input queue goes idle and need no timer.
// Defaults to 1ms.
func WithBatchTimeout(d time.Duration) Option { return func(c *config) { c.BatchTimeout = d } }

// WithWorker runs the topology distributed across worker processes: peers
// lists every worker's TCP address (peers[i] is worker i) and self indexes
// this process. Every worker must build the identical topology with the
// identical options — placement is deterministic, so each process derives
// the same executor→worker map and runs only its share, shipping batches
// to the others over TCP peer links. With a single-element peers every
// executor is local: the worker listens on its address, but nothing is
// encoded or sent.
func WithWorker(self int, peers []string) Option {
	return func(c *config) {
		c.selfWorker = self
		c.peers = append([]string(nil), peers...)
	}
}

// WithHeartbeat sets the peer liveness interval for distributed runs: each
// worker heartbeats its peers every d and declares a peer lost after 4
// silent intervals, failing the peer's in-flight anchored tuples and
// unblocking shutdown. Defaults to 1s.
func WithHeartbeat(d time.Duration) Option { return func(c *config) { c.heartbeat = d } }

// WithListener installs a pre-bound listener for this worker's peer
// address instead of letting the runtime listen itself. Useful when the
// socket is inherited (e.g. from a supervisor) or, in tests, bound on
// 127.0.0.1:0 first so free ports are known before the peer list is
// assembled. The runtime takes ownership and closes it on shutdown.
func WithListener(ln net.Listener) Option { return func(c *config) { c.listener = ln } }

// New prepares a runtime (placement + task construction) from functional
// options without starting it.
func New(topo *Topology, opts ...Option) (*Runtime, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	return newRuntime(topo, cfg)
}
