package storm

import (
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trafficcep/internal/telemetry"
)

// config collects a topology run's knobs. It is built exclusively by New
// from functional options (options.go).
type config struct {
	// ChannelBuffer is the per-executor input queue length. Defaults to
	// 1024. Sends block when full, providing backpressure.
	ChannelBuffer int
	// Telemetry, when non-nil, enables tuple tracing: spout emissions are
	// stamped with a telemetry.TupleTrace, each bolt records a per-hop
	// latency histogram (emitter batch arrival → receiver batch arrival;
	// a spout's emissions are stamped at the start of their NextTuple
	// call), sinks record end-to-end latency (spout emission → arrival at
	// the sink), and the monitor registers as a telemetry.Source. Tracing
	// reads no clock beyond the runtime's per-batch readings. Nil keeps
	// the hot path free of any tracing work.
	Telemetry *telemetry.Registry
	// FailurePolicy selects how task errors and recovered panics are
	// treated: FailFast (default) records them as the run error, Degrade
	// counts them and quarantines repeatedly failing tasks.
	FailurePolicy FailurePolicy
	// QuarantineAfter is the number of consecutive errors after which a
	// task is quarantined under the Degrade policy. Defaults to 5.
	QuarantineAfter int
	// AckTimeout, when positive, enables ack tracking for anchored spout
	// emissions (AnchorCollector.EmitAnchored): a tuple tree that has not
	// drained within the timeout — or that failed at any hop — is replayed
	// with exponential backoff. Zero keeps the reliability machinery, and
	// its hot-path cost, entirely off.
	AckTimeout time.Duration
	// MaxRetries bounds replays per anchored tuple; past it the tuple
	// expires as dropped and the spout's Fail callback fires. Defaults to 3.
	MaxRetries int
	// AckMode selects the reliability implementation behind AckTimeout:
	// AckXOR (default) is the XOR-checksum acker (see acker.go),
	// AckEpoch barrier checkpointing (see epoch.go).
	AckMode AckMode
	// EpochInterval is the epoch coordinator's barrier injection period
	// under AckEpoch (see epoch.go). Defaults to 100ms; floored at 1ms.
	// Positive under any other mode is a configuration error.
	EpochInterval time.Duration
	// BatchSize is the envelope capacity of the inter-executor transport
	// batches: emissions buffer per destination executor and one channel
	// send moves up to BatchSize tuples (see batch.go). Defaults to 64.
	// 1 restores per-tuple transport for ablation.
	BatchSize int
	// BatchTimeout bounds how long a spout-side emission may wait in a
	// partially filled batch; it is checked between NextTuple calls.
	// Bolt-side buffers flush whenever the input queue goes idle and need
	// no timer. Defaults to 1ms.
	BatchTimeout time.Duration

	// peers, when non-empty, runs the topology distributed: peers[i] is
	// the TCP address of worker i, selfWorker indexes this process, and
	// only executors placed on selfWorker run here (see WithWorker).
	peers      []string
	selfWorker int
	// heartbeat is the peer liveness interval (default 1s); a peer silent
	// for 4 intervals is declared lost.
	heartbeat time.Duration
	// dialTimeout bounds how long worker start-up waits for each peer to
	// accept connections. Defaults to 10s.
	dialTimeout time.Duration
	// listener, when set, is the pre-bound listener for peers[selfWorker]
	// (tests bind :0 first to learn free ports).
	listener net.Listener
}

func (c *config) fill() {
	if c.ChannelBuffer <= 0 {
		c.ChannelBuffer = 1024
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 5
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	// Sub-millisecond timeouts cannot be honored: the deadline sweeper's
	// tick floor is 1ms (sweepTick), so a 100µs timeout would silently fire
	// up to 10x late. Round up to the granularity instead.
	if c.AckTimeout > 0 && c.AckTimeout < time.Millisecond {
		c.AckTimeout = time.Millisecond
	}
	if c.AckMode == AckEpoch {
		if c.EpochInterval <= 0 {
			c.EpochInterval = 100 * time.Millisecond
		}
		if c.EpochInterval < time.Millisecond {
			c.EpochInterval = time.Millisecond
		}
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = time.Millisecond
	}
	if c.heartbeat <= 0 {
		c.heartbeat = time.Second
	}
	if c.dialTimeout <= 0 {
		c.dialTimeout = 10 * time.Second
	}
}

// Placement records where one task runs.
type Placement struct {
	Component string
	TaskID    int
	TaskIndex int
	Executor  int
	Worker    int
}

type taskState struct {
	ctx   TaskContext
	spout Spout
	bolt  Bolt

	// ackSpout caches the AckingSpout assertion on spout (nil when the
	// spout doesn't implement it): the acker checks it once per
	// resolved tuple, which is too hot for a repeated interface assertion.
	ackSpout AckingSpout

	executed  atomic.Uint64
	emitted   atomic.Uint64
	errors    atomic.Uint64
	dropped   atomic.Uint64 // envelopes discarded at this task (failed/quarantined)
	procNanos atomic.Uint64

	// ackPending counts this spout task's unresolved anchored roots under
	// the XOR acker (registered minus resolved); the acker's drain cond
	// parks waitTask until it returns to zero.
	ackPending atomic.Int64

	// consecErr counts consecutive failures toward quarantine; touched only
	// by the executor goroutine that owns the task.
	consecErr int
	// quarantined is set under the Degrade policy after QuarantineAfter
	// consecutive errors; grouping routes read it to skip the task.
	quarantined atomic.Bool

	// shuffle round-robin counters, one slot per downstream subscription
	// of the owning component, indexed by subscription.idx (allocated once
	// after wiring — a slice index on the shuffle hot path, not a map).
	// uint64 so wraparound stays a valid (non-negative) modulus operand.
	shuffle []uint64
}

type envelope struct {
	local int // task index within the receiving executor
	tuple Tuple
}

type executor struct {
	comp   *runningComponent
	idx    int
	eid    int // dense id across the whole topology, indexes outBatcher buffers
	worker int // worker process the executor was placed on
	tasks  []*taskState
	in     chan *batch
}

// deliver hands a batch to this executor's input queue, transferring
// ownership (the executor releases it to the pool once processed), and
// counts the delivery so average batch fill is observable.
func (ex *executor) deliver(b *batch) {
	ex.comp.batchesIn.Add(1)
	ex.in <- b
}

type subscription struct {
	grouping Grouping
	target   *runningComponent
	// idx is this subscription's dense slot among the source component's
	// subscriptions (across all streams): tasks keep their shuffle
	// counters in a slice indexed by it.
	idx int
}

type runningComponent struct {
	spec  *componentSpec
	tasks []*taskState
	execs []*executor
	// taskRoute[i] locates task i: its executor and local index.
	taskRoute []struct{ exec, local int }
	// subs maps a stream id to this component's downstream subscriptions.
	subs map[string][]*subscription
	// localTasks lists this component's task indices placed on the local
	// worker (distributed runs only; nil otherwise). Shuffle deliveries
	// prefer these — Storm's local-or-shuffle — trading per-worker load
	// balance for fewer process crossings, the trade the paper makes
	// throughout (§2.2: minimize inter-worker communication). Remote tasks
	// still receive fields/all/global/direct traffic, and shuffle falls
	// back to the full ring when every local task is quarantined.
	localTasks []int
	// down lists the executors this component's output reaches, each once
	// however many streams lead there: an executor's markers go to each of
	// them (see forward).
	down []*executor

	// Fault accounting, published by the monitor as
	// storm.<comp>.{panics,replays,acked,dropped,quarantined,missing_field}.
	panics       atomic.Uint64
	replays      atomic.Uint64 // anchored-tuple replays (spout components)
	acked        atomic.Uint64 // anchored tuples fully processed
	expired      atomic.Uint64 // anchored tuples dropped after MaxRetries
	dropped      atomic.Uint64 // tuples dropped at routing (no live task / bad direct target)
	quarantinedN atomic.Uint64 // tasks quarantined so far
	missingField atomic.Uint64 // fields-grouping hashes over absent fields
	batchesIn    atomic.Uint64 // transport batches delivered to this component's executors
	wireIn       atomic.Uint64 // envelopes this worker wrote to peers for this component's executors
	// anyQuarantined short-circuits the per-delivery quarantine scan; it is
	// sticky so routing pays one atomic load until the first quarantine.
	anyQuarantined atomic.Bool

	// Telemetry histograms, pre-resolved at construction so the hot path
	// pays one atomic Observe per tuple. Both are nil when telemetry is
	// disabled; e2eHist is set only on sinks (no downstream subscribers).
	hopHist *telemetry.Histogram
	e2eHist *telemetry.Histogram
}

// Runtime executes one topology — whole in this process by default, or
// this worker's share of it when built with WithWorker.
type Runtime struct {
	topo    *Topology
	cfg     config
	tracing bool // cfg.Telemetry != nil: stamp tuples with trace contexts
	policy  FailurePolicy
	quarK   int
	comps   map[string]*runningComponent

	// links are this worker's connections to its peers under WithWorker
	// (nil in a single-process run).
	links *peerLinks

	// Batched transport state (see batch.go): every executor gets a dense
	// id into r.execs so outBatchers index their per-destination buffers
	// with a slice instead of a map.
	batchSize    int
	batchTimeout time.Duration
	batchPool    sync.Pool
	execs        []*executor

	// With AckTimeout > 0 exactly one of acker/epochs is non-nil —
	// epochs under AckEpoch, set when the run starts, and acker under
	// AckXOR (the default), set by New so that a telemetry gather racing
	// the run's start reads a settled pointer. done is the run context's
	// cancellation channel (nil for Run/Background).
	acker  *xorAcker
	epochs *epochCoordinator
	done   <-chan struct{}

	placements []Placement
	monitor    *Monitor

	errMu    sync.Mutex
	firstErr error
}

// newRuntime prepares a runtime (placement + task construction) without
// starting it. Placement is a pure function of the topology and the worker
// count, so every worker process building the same topology computes the
// identical placement — the scheduler needs no coordination.
func newRuntime(topo *Topology, cfg config) (*Runtime, error) {
	if cfg.EpochInterval > 0 && cfg.AckMode != AckEpoch {
		return nil, fmt.Errorf("storm: WithEpochInterval requires WithAckMode(AckEpoch), have %v", cfg.AckMode)
	}
	cfg.fill()
	// A run without peers is one worker, worker 0.
	if n := max(len(cfg.peers), 1); cfg.selfWorker < 0 || cfg.selfWorker >= n {
		return nil, fmt.Errorf("storm: worker id %d out of range for %d workers", cfg.selfWorker, n)
	}
	r := &Runtime{
		topo: topo, cfg: cfg, tracing: cfg.Telemetry != nil,
		policy: cfg.FailurePolicy, quarK: cfg.QuarantineAfter,
		comps:     make(map[string]*runningComponent),
		batchSize: cfg.BatchSize, batchTimeout: cfg.BatchTimeout,
	}
	r.batchPool.New = func() any { return &batch{envs: make([]envelope, 0, cfg.BatchSize)} }
	// The input queue holds batches, so scale its length to keep the
	// buffered-tuple capacity (and therefore the backpressure point) at
	// roughly ChannelBuffer tuples regardless of batch size.
	chanCap := cfg.ChannelBuffer / cfg.BatchSize
	if chanCap < 1 {
		chanCap = 1
	}

	// A single-process run places every executor on worker 0.
	totalWorkers := max(len(cfg.peers), 1)
	nextTaskID := 0
	totalExecs := 0
	for _, id := range topo.order {
		totalExecs += topo.byID[id].executors
	}

	// Build components in topological order. Placement is locality-first
	// (the T-Storm observation the paper builds on, §2.2: inter-worker
	// traffic is the dominant cost of distribution) and follows the data:
	// every component starts from its slot in a balanced block partition over
	// executor slots, and a stage that would otherwise sit where none of its
	// input flows moves to the lowest-numbered worker that it does reach (see
	// flowPlacement). A multi-executor component still spreads round-robin
	// across workers: parallelism (and per-worker skew repair, rebalance
	// migration) needs its tasks on distinct workers more than it needs
	// locality. Placement stays a pure function of the topology and worker
	// count, so every worker derives the same map.
	compCursor := 0
	leaves := make(map[string][]bool, len(topo.order))
	for _, id := range topo.order {
		spec := topo.byID[id]
		rc := &runningComponent{spec: spec, subs: make(map[string][]*subscription)}
		rc.taskRoute = make([]struct{ exec, local int }, spec.tasks)

		// Block sizes differ by at most one: executor slot i of E total maps
		// to worker i*W/E.
		base, out := flowPlacement(spec, compCursor*totalWorkers/totalExecs, totalWorkers, leaves)
		leaves[id] = out
		for e := 0; e < spec.executors; e++ {
			worker := (base + e) % totalWorkers
			ex := &executor{comp: rc, idx: e, eid: len(r.execs), worker: worker, in: make(chan *batch, chanCap)}
			r.execs = append(r.execs, ex)
			// Tasks are distributed to executors round-robin; extra
			// tasks share executors ("pseudo-parallel", §2.1.1).
			for ti := e; ti < spec.tasks; ti += spec.executors {
				ts := &taskState{
					ctx: TaskContext{
						Component: id,
						TaskID:    nextTaskID,
						TaskIndex: ti,
						NumTasks:  spec.tasks,
						Executor:  e,
						Worker:    worker,

						ExclusiveInput: spec.exclusiveInput,
					},
				}
				nextTaskID++
				if spec.isSpout {
					ts.spout = spec.spout()
					if ts.spout == nil {
						return nil, fmt.Errorf("storm: spout factory for %q returned nil", id)
					}
					ts.ackSpout, _ = ts.spout.(AckingSpout)
				} else {
					ts.bolt = spec.bolt()
					if ts.bolt == nil {
						return nil, fmt.Errorf("storm: bolt factory for %q returned nil", id)
					}
				}
				rc.taskRoute[ti] = struct{ exec, local int }{e, len(ex.tasks)}
				ex.tasks = append(ex.tasks, ts)
				rc.tasks = append(rc.tasks, ts)
				r.placements = append(r.placements, Placement{
					Component: id, TaskID: ts.ctx.TaskID, TaskIndex: ti,
					Executor: e, Worker: worker,
				})
			}
			rc.execs = append(rc.execs, ex)
		}
		// rc.tasks was appended per-executor; reorder by TaskIndex so
		// rc.tasks[i] is task i.
		ordered := make([]*taskState, spec.tasks)
		for _, ts := range rc.tasks {
			ordered[ts.ctx.TaskIndex] = ts
		}
		rc.tasks = ordered
		r.comps[id] = rc
		compCursor += spec.executors
	}

	// Wire subscriptions and the edge table.
	for _, id := range topo.order {
		spec := topo.byID[id]
		rc := r.comps[id]
		fed := make(map[*runningComponent]bool)
		for _, g := range spec.groupings {
			src := r.comps[g.Source]
			src.subs[g.Stream] = append(src.subs[g.Stream], &subscription{grouping: g, target: rc})
			if !fed[src] {
				fed[src] = true
				src.down = append(src.down, rc.execs...)
			}
		}
	}
	// Dense per-task shuffle counters, sized to the component's wired
	// subscriptions (see taskState.shuffle).
	for _, id := range topo.order {
		rc := r.comps[id]
		n := 0
		for _, subs := range rc.subs {
			for _, s := range subs {
				s.idx = n
				n++
			}
		}
		if n == 0 {
			continue
		}
		for _, ts := range rc.tasks {
			ts.shuffle = make([]uint64, n)
		}
	}
	// Local-or-shuffle target sets (see runningComponent.localTasks). A
	// component entirely on this worker keeps nil: the full ring is already
	// all-local, so the plain round-robin path is equivalent and cheaper.
	if cfg.peers != nil {
		for _, id := range topo.order {
			rc := r.comps[id]
			for ti := range rc.tasks {
				if rc.execs[rc.taskRoute[ti].exec].worker == cfg.selfWorker {
					rc.localTasks = append(rc.localTasks, ti)
				}
			}
			if len(rc.localTasks) == len(rc.tasks) {
				rc.localTasks = nil
			}
		}
	}

	// Telemetry: per-component hop histograms, end-to-end histograms on
	// sinks, and the monitor as a collectable source. Resolved here so the
	// hot path never touches the registry map.
	if reg := cfg.Telemetry; reg != nil {
		for _, id := range topo.order {
			rc := r.comps[id]
			if rc.spec.isSpout {
				continue
			}
			rc.hopHist = reg.Histogram("storm." + id + ".hop_latency_ns")
			if len(rc.subs) == 0 {
				rc.e2eHist = reg.Histogram("storm." + id + ".e2e_latency_ns")
			}
		}
	}

	if cfg.AckTimeout > 0 && cfg.AckMode != AckEpoch {
		r.acker = newXorAcker(r, cfg.AckTimeout, cfg.MaxRetries)
	}
	r.monitor = newMonitor(r)
	if cfg.Telemetry != nil {
		cfg.Telemetry.Register(r.monitor)
	}
	return r, nil
}

// flowPlacement places one component given where its sources' output
// leaves from (leaves, by source id, filled in topological order). It
// returns the worker of the component's first executor — executor e sits on
// (start+e) mod workers — and the workers this component's own output
// leaves from:
//   - a single-executor component's output leaves from its own worker;
//   - a multi-executor component fed only by shuffle leaves from each
//     worker its input reaches where it has an executor, because
//     local-or-shuffle keeps the flow there, and from all of its workers
//     when some input reaches a worker where it has none;
//   - any other multi-executor component leaves from every worker it has
//     an executor on.
//
// block is the component's worker under the block partition. It stands
// unless none of the component's input reaches it: a single-executor bolt
// then moves to the lowest-numbered worker its input reaches, and a
// shuffle-fed multi-executor bolt none of whose executors would sit on such
// a worker starts its round-robin there instead. The rest of the topology
// keeps its block slots, so moving one stage never shifts another.
func flowPlacement(spec *componentSpec, block, workers int, leaves map[string][]bool) (start int, out []bool) {
	in := make([]bool, workers)
	onlyShuffle := len(spec.groupings) > 0
	for _, g := range spec.groupings {
		for w, ok := range leaves[g.Source] {
			in[w] = in[w] || ok
		}
		onlyShuffle = onlyShuffle && g.Type == ShuffleGrouping
	}
	on := func(start int) []bool {
		has := make([]bool, workers)
		for e := 0; e < spec.executors; e++ {
			has[(start+e)%workers] = true
		}
		return has
	}
	reached := func(has []bool) bool {
		for w := range has {
			if has[w] && in[w] {
				return true
			}
		}
		return false
	}
	start = block
	has := on(start)
	if (spec.executors == 1 || onlyShuffle) && !reached(has) {
		for w := range in {
			if in[w] {
				start, has = w, on(w)
				break
			}
		}
	}
	if spec.executors == 1 || !onlyShuffle {
		return start, has
	}
	out = make([]bool, workers)
	for w := range in {
		switch {
		case !in[w]:
		case has[w]:
			out[w] = true
		default:
			return start, has
		}
	}
	return start, out
}

// WorkerID returns this process's worker id (0 unless built with
// WithWorker).
func (r *Runtime) WorkerID() int { return r.cfg.selfWorker }

// Placements returns where every task was placed.
func (r *Runtime) Placements() []Placement {
	return append([]Placement(nil), r.placements...)
}

// Monitor returns the runtime's metrics monitor.
func (r *Runtime) Monitor() *Monitor { return r.monitor }

// Run executes the topology to completion: spouts run until exhausted, the
// tuple wave drains through the bolts, and every component is cleaned up.
// Under FailFast it returns the first component error encountered
// (processing continues past per-tuple errors; they are also counted in the
// metrics); under Degrade per-task failures are absorbed into the counters.
func (r *Runtime) Run() error {
	return r.RunContext(context.Background())
}

// RunContext is Run with graceful cancellation: when ctx is cancelled the
// spouts stop emitting, pending anchored tuples are expired, and the
// in-flight tuple wave drains through the bolts before RunContext returns
// ctx's error. Cancellation never abandons queued tuples mid-pipeline.
func (r *Runtime) RunContext(ctx context.Context) error {
	r.done = ctx.Done()
	if r.cfg.AckTimeout > 0 {
		if r.cfg.AckMode == AckEpoch {
			// No per-tuple machinery at all: the acker stays nil, so
			// EmitAnchored degrades to plain Emit and reliability rides
			// the barrier protocol (started below, once the peer links are
			// up — its messages ride them).
			r.epochs = newEpochCoordinator(r)
		} else {
			r.acker.start(r.done)
		}
	}
	if r.cfg.peers != nil {
		l, err := newPeerLinks(r)
		if err != nil {
			r.stopAcking()
			return err
		}
		r.links = l
		defer l.Close()
	}
	if r.epochs != nil {
		r.epochs.start()
	}

	var wg sync.WaitGroup

	for _, id := range r.topo.order {
		rc := r.comps[id]
		for _, ex := range rc.execs {
			if !r.localExec(ex) {
				continue
			}
			wg.Add(1)
			go func(rc *runningComponent, ex *executor) {
				defer wg.Done()
				labelGoroutine(rc.spec.id, r.cfg.selfWorker)
				if rc.spec.isSpout {
					r.runSpoutExecutor(rc, ex)
				} else {
					r.runBoltExecutor(rc, ex)
				}
				// This executor will emit no more tuples (its buffers are
				// flushed and, with the XOR acker on, its anchored trees
				// resolved): end each of its edges behind its final flush.
				// Under AckEpoch it has passed every epoch on its worker too.
				r.forward(ex, markEnd)
				if r.epochs != nil {
					r.epochs.pass(ex.eid, markEnd)
				}
			}(rc, ex)
		}
	}
	wg.Wait()
	if r.links != nil {
		r.links.leave()
	}
	r.stopAcking()

	r.errMu.Lock()
	err := r.firstErr
	r.errMu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// stopAcking stops whichever reliability implementation the run started.
func (r *Runtime) stopAcking() {
	if r.acker != nil {
		r.acker.stop()
	}
	if r.epochs != nil {
		r.epochs.stop()
	}
}

func (r *Runtime) recordErr(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

// canceled reports whether the run context was cancelled.
func (r *Runtime) canceled() bool {
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Spout task states within one executor.
const (
	spoutClosed uint8 = iota // never opened, failed, or closed
	spoutActive              // polled by the round-robin loop
	spoutParked              // AckEpoch: exhausted, until a rewind reopens it or the executor exits
)

// spoutExec is one spout executor's run state: the lifecycle of its tasks
// and, under AckEpoch, their checkpoints (the epoch hooks in epoch.go).
type spoutExec struct {
	r                *Runtime
	rc               *runningComponent
	ex               *executor
	out              *outBatcher
	state            []uint8
	nActive, nParked int

	// AckEpoch only: each ReplayableSpout task's checkpoints by epoch, the
	// last epoch injected, the first epoch injected with every task parked,
	// and the rewind generation already applied.
	replayable                   []ReplayableSpout
	snaps                        []map[uint64][]byte
	injected, exitEpoch, lastGen uint64
}

func (s *spoutExec) closeTask(i int) {
	if s.state[i] == spoutActive {
		s.nActive--
	} else {
		s.nParked--
	}
	s.state[i] = spoutClosed
	ts := s.ex.tasks[i]
	if err := s.r.spoutClose(s.rc, ts); err != nil {
		s.r.taskFailed(s.rc, ts, fmt.Errorf("storm: spout %s task %d close: %w", s.rc.spec.id, ts.ctx.TaskID, err))
	}
}

// runSpoutExecutor drives the executor's spout tasks round-robin until all
// report exhaustion (or the run is cancelled), then — when ack tracking is
// on — stays alive until every anchored tuple its tasks emitted resolved,
// so no replay can follow its end of stream.
//
// Under AckEpoch the same loop also injects barriers and applies rewinds
// between calls, and an exhausted task parks instead of closing: the
// executor exits only once an epoch injected after its final tuple
// commits, and a rewind reopens its parked tasks.
//
// Panic isolation is hoisted out of the per-tuple path: one recover guards
// each entry into the round-robin loop (paid only when a NextTuple actually
// panics), and the loop is re-entered afterwards, so the per-call cost is
// three scalar writes instead of a defer per tuple.
func (r *Runtime) runSpoutExecutor(rc *runningComponent, ex *executor) {
	ec := r.epochs
	s := &spoutExec{r: r, rc: rc, ex: ex, out: r.newOutBatcher(), state: make([]uint8, len(ex.tasks))}
	for i, ts := range ex.tasks {
		if err := r.spoutOpen(rc, ts); err != nil {
			r.taskFailed(rc, ts, fmt.Errorf("storm: spout %s task %d open: %w", rc.spec.id, ts.ctx.TaskID, err))
			continue
		}
		s.state[i] = spoutActive
		s.nActive++
	}
	if ec != nil {
		s.epochOpen()
	}
	// One collector serves every NextTuple call of this executor: per-call
	// fields (task, clock) are reset below, so the steady state allocates
	// nothing per tuple.
	col := &taskCollector{r: r, rc: rc, out: s.out, root: r.tracing}
	if r.acker != nil {
		col.edges = newEdgeStream()
	}
	// cur is the NextTuple call in flight, for the panic handler.
	var cur struct {
		i      int
		ts     *taskState
		inCall bool
	}
	now := time.Now()
	loop := func() (finished bool) {
		defer func() {
			p := recover()
			if p == nil || !cur.inCall {
				if p != nil {
					panic(p) // not ours: let it crash
				}
				return
			}
			cur.inCall = false
			now = time.Now() // the poisoned call never refreshed the chained clock
			err := r.panicErr(rc, cur.ts, "NextTuple", p)
			wrapped := fmt.Errorf("storm: spout %s task %d: %w", rc.spec.id, cur.ts.ctx.TaskID, err)
			// A panicking source may or may not have more tuples: under
			// Degrade keep polling it until quarantine, under FailFast stop
			// the task like any fatal spout error.
			if quarantined := r.taskFailed(rc, cur.ts, wrapped); quarantined || r.policy != Degrade {
				s.closeTask(cur.i)
			}
		}()
		for s.nActive > 0 && !r.canceled() {
			for i, ts := range ex.tasks {
				if s.state[i] != spoutActive {
					continue
				}
				// now chains between iterations: the clock reading taken after
				// the previous NextTuple doubles as this call's start, one read
				// per call instead of two.
				start := now
				if len(s.out.dests) == 0 {
					// A call that buffers into an empty batcher starts the
					// batch timeout, even if it panics.
					s.out.first = start
				}
				col.ts = ts
				col.start = start
				if r.tracing {
					// Emissions from this NextTuple call start traces stamped
					// with the call's start — no extra clock reads per emit.
					col.nowNanos = start.UnixNano()
				}
				cur.i, cur.ts, cur.inCall = i, ts, true
				more, err := ts.spout.NextTuple(col)
				cur.inCall = false
				now = time.Now()
				ts.procNanos.Add(uint64(now.Sub(start)))
				// Between calls, flush batches whose oldest envelope waited
				// past the batch timeout.
				s.out.maybeFlush(now)
				fatal := false
				if err != nil {
					wrapped := fmt.Errorf("storm: spout %s task %d: %w", rc.spec.id, ts.ctx.TaskID, err)
					quarantined := r.taskFailed(rc, ts, wrapped)
					fatal = quarantined || r.policy != Degrade
				} else {
					ts.executed.Add(1)
					ts.consecErr = 0
				}
				switch {
				case fatal || !more && ec == nil:
					s.closeTask(i)
				case !more:
					s.park(i)
				}
				if ec != nil {
					s.epochSync()
				}
			}
		}
		return true
	}
	for {
		for !loop() {
		}
		if ec == nil || !s.epochIdle() {
			break
		}
	}
	// Cancelled, exhausted, committed out or failed out: close the tasks
	// still open without further emits.
	for i := range ex.tasks {
		if s.state[i] != spoutClosed {
			s.closeTask(i)
		}
	}
	// Everything buffered must be on the wire before this executor ends its
	// stream, and waitTask below blocks on tuple trees whose deliveries
	// could otherwise still sit in this executor's buffers.
	s.out.flushAll()
	if r.acker != nil {
		for _, ts := range ex.tasks {
			r.acker.waitTask(ts)
		}
	}
}

// runBoltExecutor prepares the executor's bolt tasks, processes its input
// queue until every input edge ended, then cleans up. Envelopes routed to a
// task whose Prepare failed — or that was quarantined — are counted as
// dropped rather than silently discarded, and the first such drop records
// an error under FailFast so the run cannot report success with vanished
// data.
func (r *Runtime) runBoltExecutor(rc *runningComponent, ex *executor) {
	prepared := make([]bool, len(ex.tasks))
	dropLogged := make([]bool, len(ex.tasks))
	for i, ts := range ex.tasks {
		if err := r.boltPrepare(rc, ts); err != nil {
			ts.errors.Add(1)
			if r.policy == Degrade {
				// Quarantine immediately so grouping routes avoid the task.
				r.quarantine(rc, ts)
			} else {
				r.recordErr(fmt.Errorf("storm: bolt %s task %d prepare: %w", rc.spec.id, ts.ctx.TaskID, err))
			}
			continue
		}
		prepared[i] = true
	}
	out := r.newOutBatcher()
	// One collector serves every Execute call of this executor; per-tuple
	// fields are reset per envelope, so the steady state allocates nothing.
	// Its ab buffers XOR-acker checksum updates under the same flush
	// triggers as the tuple batches (nil unless the XOR acker is on).
	col := &taskCollector{r: r, rc: rc, out: out}
	if r.acker != nil {
		col.ab, col.edges = r.acker.newBatcher(), newEdgeStream()
	}
	// recv returns the next input batch, flushing buffered output first
	// whenever the input queue is empty: the executor never sleeps on input
	// while holding unsent output, which both bounds batching latency and
	// keeps an acyclic topology deadlock-free under backpressure. Buffered
	// ack updates flush on the same trigger: a spout's drain wait must not
	// stall on checksum bits parked in an idle executor.
	recv := func() *batch {
		select {
		case b := <-ex.in:
			return b
		default:
		}
		out.flushAll()
		if col.ab != nil {
			col.ab.flush()
		}
		return <-ex.in
	}
	// bt/next are the batch being processed and the envelope to process
	// next, hoisted out of loop() so the panic handler can resume after the
	// poisoned envelope without dropping the rest of its batch. marks holds
	// one mark per input edge and passed the highest epoch forwarded.
	var bt *batch
	next := 0
	marks, passed := r.inputMarks(ex), uint64(0)
	// The clock is read twice per batch: btStart stamps the batch's arrival
	// and the elapsed time is attributed to tasks proportionally to
	// done[local], the per-task executed count of the current batch.
	// Tracing reads no clock of its own: every traced envelope of the batch
	// takes btStart for its hop and end-to-end observations and for its
	// emissions' stamps.
	var btStart time.Time
	done, total := make([]uint32, len(ex.tasks)), uint32(0)
	// inCall marks an Execute call in flight (col.ts is its task), for the
	// panic handler. Recovery is hoisted to the loop level — one defer per
	// loop entry rather than per tuple — so the isolation costs two scalar
	// writes on the hot path and a loop re-entry only when a bolt panics.
	inCall := false
	loop := func() (finished bool) {
		defer func() {
			p := recover()
			if p == nil || !inCall {
				if p != nil {
					panic(p) // not ours: let it crash
				}
				return
			}
			inCall = false
			ts := col.ts
			err := r.panicErr(rc, ts, "Execute", p)
			// The tuple was attempted: count it executed so per-edge
			// accounting (emitted upstream == executed + dropped) still
			// reconciles, and fail its anchor so the acker replays it.
			ts.executed.Add(1)
			r.taskFailed(rc, ts, fmt.Errorf("storm: bolt %s task %d: %w", rc.spec.id, ts.ctx.TaskID, err))
			col.settle(true)
			next++ // resume with the envelope after the poisoned one
		}()
		for {
			if bt == nil {
				bt = recv()
				if bt.mark != 0 {
					// A marker raises its edge's mark. Once every input
					// ended the executor is done; once every input passed a
					// new epoch, its output goes out ahead of the barrier.
					marks[bt.src] = max(marks[bt.src], bt.mark)
					r.putBatch(bt)
					bt = nil
					low := slices.Min(marks)
					if low == markEnd {
						return true
					}
					if low > passed {
						passed = low
						out.flushAll()
						r.forward(ex, low)
						r.epochs.pass(ex.eid, low)
					}
					continue
				}
				next = 0
				btStart = time.Now()
				col.nowNanos = btStart.UnixNano()
			}
			for next < len(bt.envs) {
				// Pointer, not copy: the envelope is ~100 bytes and only
				// read here (the batch slot is never mutated mid-call).
				env := &bt.envs[next]
				ts := ex.tasks[env.local]
				col.begin(ts, &env.tuple)
				if !prepared[env.local] || ts.quarantined.Load() {
					ts.dropped.Add(1)
					if !dropLogged[env.local] {
						dropLogged[env.local] = true
						if r.policy != Degrade {
							r.recordErr(fmt.Errorf("storm: bolt %s task %d: dropping tuples routed to a failed task", rc.spec.id, ts.ctx.TaskID))
						}
					}
					col.settle(true)
					next++
					continue
				}
				if trace := env.tuple.Trace; trace.Active() && rc.hopHist != nil {
					rc.hopHist.Observe(col.nowNanos - trace.EmitNanos)
					if rc.e2eHist != nil {
						rc.e2eHist.Observe(col.nowNanos - trace.StartNanos)
					}
				}
				inCall = true
				err := ts.bolt.Execute(env.tuple, col)
				inCall = false
				ts.executed.Add(1)
				done[env.local]++
				total++
				if err != nil {
					r.taskFailed(rc, ts, fmt.Errorf("storm: bolt %s task %d: %w", rc.spec.id, ts.ctx.TaskID, err))
				} else {
					ts.consecErr = 0
				}
				col.settle(err != nil)
				next++
			}
			// Settle the batch's processing time across the tasks that did
			// the work (a panicking envelope is counted executed but not in
			// done, leaving its share unattributed — rare and harmless).
			if total > 0 {
				elapsed := uint64(time.Since(btStart))
				for local, c := range done {
					switch {
					case c == total: // one task did it all: no division
						ex.tasks[local].procNanos.Add(elapsed)
					case c > 0:
						ex.tasks[local].procNanos.Add(elapsed * uint64(c) / uint64(total))
					}
					done[local] = 0
				}
				total = 0
			}
			// Receiver releases: every envelope was processed, return the
			// batch to the pool (the ownership contract of batch.go).
			r.putBatch(bt)
			bt = nil
		}
	}
	for !loop() {
	}
	// Input ended: put the remainder of the pipeline on the wire before
	// this executor ends its own stream.
	out.flushAll()
	if col.ab != nil {
		col.ab.flush()
	}
	for i, ts := range ex.tasks {
		if !prepared[i] {
			continue
		}
		if err := r.boltCleanup(rc, ts); err != nil {
			r.taskFailed(rc, ts, fmt.Errorf("storm: bolt %s task %d cleanup: %w", rc.spec.id, ts.ctx.TaskID, err))
		}
	}
}

// taskCollector routes a task's emissions to downstream subscriptions.
type taskCollector struct {
	r  *Runtime
	rc *runningComponent
	ts *taskState
	// root marks a tracing spout collector: every emission starts a fresh
	// trace. in is the input tuple's trace context on bolt collectors;
	// emissions derive from it when it is active. nowNanos is the
	// executor's last clock reading: the start of the current NextTuple
	// call on a tracing spout, the arrival of the current batch on a bolt.
	// Emissions are stamped with it instead of reading the clock again, so
	// a hop's latency spans emitter batch arrival to receiver batch arrival
	// (queue wait + transport + emitter processing).
	root     bool
	in       telemetry.TupleTrace
	nowNanos int64
	// inAck anchors a bolt's emissions to the input tuple's tracked tree,
	// and inEdge is the input's delivery edge, which settle consumes.
	inAck  uint64
	inEdge uint64
	// XOR-acker state (acker.go): edges is this collector's private
	// edge-id stream; pendXor accumulates the edge ids created by the
	// current NextTuple/Execute call and pendFail whether any of them was
	// dropped at routing; ab batches the updates (nil on spout and replay
	// collectors, which apply directly).
	edges    edgeState
	pendXor  uint64
	pendFail bool
	ab       *ackBatcher
	// rootVals is the reused pre-delivery payload snapshot of the root
	// emission in flight (spout collectors only): the emitter flattens the
	// Values map into it before the first envelope ships, and register
	// takes the array for the root, swapping a recycled one back in.
	// Snapshotting after delivery would race a consumer writing to the
	// map.
	rootVals []kvEntry
	// shuffle overrides the task's round-robin counters; set only on the
	// acker's replay collector, which runs on a different goroutine
	// than the task's own executor.
	shuffle map[*subscription]*uint64

	// out is the owning executor's batch buffer; emissions are buffered per
	// destination executor and flushed per batch.go's triggers. Nil on the
	// acker's replay collector, whose emissions ship immediately in
	// single-envelope batches (replays are rare and latency-sensitive).
	out *outBatcher
	// start is the spout executor's clock reading at the start of the
	// current NextTuple call: the XOR acker's register deadline counts
	// from it.
	start time.Time
	// scratch is the reused fields-grouping key buffer.
	scratch []byte
}

// outTrace stamps the trace context for one emission.
func (c *taskCollector) outTrace() telemetry.TupleTrace {
	switch {
	case c.root:
		return telemetry.StartTrace(c.nowNanos)
	case c.in.Active():
		return c.in.Next(c.nowNanos)
	}
	return telemetry.TupleTrace{}
}

// begin readies a bolt collector for one Execute call of t on task ts:
// emissions derive t's trace and anchor, and the call's XOR-acker state
// starts empty.
func (c *taskCollector) begin(ts *taskState, t *Tuple) {
	c.ts, c.in, c.inAck, c.inEdge = ts, t.Trace, t.ack, t.edge
	c.pendXor, c.pendFail = 0, false
}

// settle closes the current call's hop of its input's tree, if the input
// is anchored: one update consumes the input edge and introduces the
// edges of the call's emissions. A failed call (an error, a panic, or an
// envelope dropped at a dead task) sets the fail bit on that same update,
// which carries the input edge, so the tree cannot zero out before the
// fail bit lands. It stays small enough to inline, so an unanchored
// envelope pays one comparison.
func (c *taskCollector) settle(fail bool) {
	if c.inAck != 0 {
		c.ab.push(c.inAck, c.pendXor^c.inEdge, fail || c.pendFail)
	}
}

// Emit implements Collector.
func (c *taskCollector) Emit(values map[string]any) { c.EmitTo(DefaultStream, values) }

// EmitTo implements Collector.
func (c *taskCollector) EmitTo(stream string, values map[string]any) {
	c.ts.emitted.Add(1)
	t := Tuple{Stream: stream, Values: values, Trace: c.outTrace(), ack: c.inAck}
	for _, sub := range c.rc.subs[stream] {
		c.deliver(sub, &t, -1)
	}
}

// EmitDirect implements Collector.
func (c *taskCollector) EmitDirect(stream string, task int, values map[string]any) {
	c.ts.emitted.Add(1)
	t := Tuple{Stream: stream, Values: values, Trace: c.outTrace(), ack: c.inAck}
	for _, sub := range c.rc.subs[stream] {
		if sub.grouping.Type == DirectGrouping {
			c.deliver(sub, &t, task)
		}
	}
}

// EmitAnchored implements AnchorCollector: on a spout collector with the
// XOR acker running the emission is registered as a tracked root;
// everywhere else it is a plain Emit.
func (c *taskCollector) EmitAnchored(msgID string, values map[string]any) {
	if ak := c.r.acker; ak != nil && c.ts.spout != nil {
		c.emitAnchoredXOR(ak, msgID, values)
		return
	}
	c.Emit(values)
}

// emitAnchoredXOR is EmitAnchored's XOR-acker root emission: allocate the
// root id, deliver — accumulating the created edge ids in pendXor — then
// register the root with the accumulated initial checksum. Registration
// comes last so the hot path takes the table lock exactly once per root;
// updates racing ahead of it merge via placeholder entries.
func (c *taskCollector) emitAnchoredXOR(ak *xorAcker, msgID string, values map[string]any) {
	root := ak.newRoot()
	if root == 0 { // acker stopped (cancellation): emit unanchored
		c.Emit(values)
		return
	}
	c.ts.emitted.Add(1)
	t := Tuple{Stream: DefaultStream, Values: values, Trace: c.outTrace(), ack: root}
	// Snapshot the payload before any delivery ships: at batch size 1 (and
	// whenever a buffer fills mid-loop) the envelope reaches its executor
	// inside deliver, and the consumer may write to the Values map
	// concurrently — the replay snapshot must be taken while
	// this goroutine still owns the map. register takes ownership of the
	// snapshot and swaps a recycled backing array into rootVals for the
	// next emission.
	vals := c.rootVals[:0]
	for k, v := range values {
		vals = append(vals, kvEntry{k, v})
	}
	c.rootVals = vals
	c.pendXor, c.pendFail = 0, false
	for _, sub := range c.rc.subs[DefaultStream] {
		c.deliver(sub, &t, -1)
	}
	ak.register(root, c.rc, c.ts, msgID, t, &c.rootVals, c.pendXor, c.pendFail, c.start)
}

// ReportDrop implements DropReporter: the current input tuple was
// intentionally discarded by the bolt, so count it against the task's
// dropped counter. The tuple's anchored tree (if any) is left to drain
// normally — the drop is deterministic, so replaying could not route it
// either.
func (c *taskCollector) ReportDrop() { c.ts.dropped.Add(1) }

// Acking implements AnchorCollector.
func (c *taskCollector) Acking() bool {
	return c.r.acker != nil && c.ts.spout != nil
}

// deliver routes one tuple to the tasks selected by the subscription's
// grouping. directTask is only used for direct groupings. Quarantined tasks
// are skipped: shuffle advances to the next live task, fields groupings
// probe linearly from the hashed task (key affinity is traded for liveness
// while a task is quarantined), all/global skip dead replicas. A tuple with
// no live target is counted as dropped on the receiving component.
func (c *taskCollector) deliver(sub *subscription, t *Tuple, directTask int) {
	target := sub.target
	n := len(target.tasks)
	quar := target.anyQuarantined.Load()
	switch sub.grouping.Type {
	case ShuffleGrouping:
		ctr := c.shuffleCtr(sub)
		// Local-or-shuffle: round-robin over the same-worker tasks first
		// (empty outside distributed runs — see localTasks). Only when all
		// of them are quarantined does the delivery spill onto the full ring.
		if lt := target.localTasks; len(lt) > 0 {
			ln := len(lt)
			for tries := 0; tries < ln; tries++ {
				idx := lt[int(*ctr%uint64(ln))]
				*ctr++
				if quar && target.tasks[idx].quarantined.Load() {
					continue
				}
				c.send(target, idx, t)
				return
			}
		}
		for tries := 0; tries < n; tries++ {
			idx := int(*ctr % uint64(n))
			*ctr++
			if quar && target.tasks[idx].quarantined.Load() {
				continue
			}
			c.send(target, idx, t)
			return
		}
		c.dropRouted(target, t)
	case FieldsGrouping:
		// An absent field renders as the literal <nil>, so every tuple
		// missing the same fields funnels to one task. The counter makes
		// that visible; the routing stays deterministic (see batch.go).
		missing := false
		c.scratch = appendFieldsKey(c.scratch[:0], sub.grouping.Fields, t.Values, &missing)
		if missing {
			c.rc.missingField.Add(1)
		}
		idx := int(fnv1a(c.scratch) % uint32(n))
		if quar {
			for tries := 0; tries < n && target.tasks[idx].quarantined.Load(); tries++ {
				idx = (idx + 1) % n
			}
			if target.tasks[idx].quarantined.Load() {
				c.dropRouted(target, t)
				return
			}
		}
		c.send(target, idx, t)
	case AllGrouping:
		for i := 0; i < n; i++ {
			if quar && target.tasks[i].quarantined.Load() {
				c.dropRouted(target, t)
				continue
			}
			c.send(target, i, t)
		}
	case GlobalGrouping:
		idx := 0
		if quar {
			for idx < n && target.tasks[idx].quarantined.Load() {
				idx++
			}
			if idx == n {
				c.dropRouted(target, t)
				return
			}
		}
		c.send(target, idx, t)
	case DirectGrouping:
		if directTask < 0 || directTask >= n {
			c.dropRouted(target, t)
			if c.r.policy != Degrade {
				c.r.recordErr(fmt.Errorf("storm: %s task %d: direct emit to %s task %d out of range [0,%d)",
					c.rc.spec.id, c.ts.ctx.TaskID, target.spec.id, directTask, n))
			}
			return
		}
		if quar && target.tasks[directTask].quarantined.Load() {
			c.dropRouted(target, t)
			return
		}
		c.send(target, directTask, t)
	}
}

// shuffleCtr returns the round-robin counter for a subscription: the
// emitting task's dense slot, or the replay override map when set.
func (c *taskCollector) shuffleCtr(sub *subscription) *uint64 {
	if m := c.shuffle; m != nil {
		ctr, ok := m[sub]
		if !ok {
			ctr = new(uint64)
			m[sub] = ctr
		}
		return ctr
	}
	return &c.ts.shuffle[sub.idx]
}

// dropRouted counts a tuple that could not be routed to any live task of
// the target component, and fails its anchored tree (if any) so the acker
// replays or expires it instead of waiting for a timeout.
func (c *taskCollector) dropRouted(target *runningComponent, t *Tuple) {
	target.dropped.Add(1)
	if t.ack != 0 {
		// The fail bit rides the emitter's pending update (which always
		// carries a live edge of the tree), so the root cannot resolve
		// clean before the drop is known.
		c.pendFail = true
	}
}

// send enqueues one envelope for the chosen task. An anchored delivery's
// edge id is folded into the emitter's pending update at enqueue time —
// before the envelope may sit in a batch buffer — so the acker can never
// observe a tree as drained while deliveries are still buffered. The replay
// collector (out == nil) ships the envelope immediately in its own pooled
// batch.
func (c *taskCollector) send(target *runningComponent, taskIdx int, t *Tuple) {
	// t is shared across every send of one emission (AllGrouping fans it
	// out N times; emitAnchoredXOR reads it again after delivery), so the
	// per-send edge id is written onto the buffered envelope — never onto
	// *t. Each anchored send owns a fresh edge id, accumulated for the
	// emitter's side of the double-XOR.
	var edge uint64
	if t.ack != 0 {
		edge = c.edges.next()
		c.pendXor ^= edge
	}
	route := target.taskRoute[taskIdx]
	dest := target.execs[route.exec]
	if c.out != nil {
		c.out.add(dest, route.local, t, edge)
		return
	}
	b := c.r.getBatch()
	b.envs = append(b.envs, envelope{local: route.local, tuple: *t})
	b.envs[len(b.envs)-1].tuple.edge = edge
	c.r.deliverOrDrop(dest, b)
}

// labelGoroutine tags the calling goroutine for CPU and goroutine profiles
// with the component it works for — an executor's component id, or wire,
// acker or epoch for the runtime's own goroutines — and its worker, so
// that `go tool pprof -tags` splits a profile by component. The labels are
// set once per goroutine and cost nothing per tuple.
func labelGoroutine(component string, worker int) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("component", component, "worker", strconv.Itoa(worker))))
}
