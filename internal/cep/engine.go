package cep

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"trafficcep/internal/epl"
	"trafficcep/internal/telemetry"
)

// Engine is one CEP engine instance: a registry of standing statements plus
// the serial event-processing loop of §2.1.2 ("new arriving data are
// processed serially and the Esper engine responds in real time"). Multiple
// engines run concurrently inside different EsperBolt tasks; each engine
// serializes its own event stream with a mutex.
type Engine struct {
	mu       sync.Mutex
	stmts    map[string]*Statement
	byStream map[string][]*Statement
	funcs    map[string]ScalarFunc
	// schemas holds one slot table per stream any statement ever read from.
	schemas map[string]*streamSchema
	// views is the window registry: per (stream, view chain) key, the view a
	// new FROM item may still join (see view). viewCount and viewSubs count
	// the live views and the FROM items subscribed to them.
	views               map[string]*view
	viewCount, viewSubs int
	// owned holds, per stream, the engine's owned-key sets, one per field
	// (see Own).
	owned map[string][]*ownedSet
	// retired names the statements removed since the last Collect, whose
	// published series that Collect zeroes.
	retired map[string]bool

	// eventsUnowned counts the (statement, event) turns skipped because the
	// event's key is not one the statement's owned-key set holds.
	eventsIn, eventsUnowned uint64
	procTime                time.Duration

	// name prefixes this engine's metric names in the telemetry registry;
	// latHist records per-event processing latency when a registry is
	// attached.
	name    string
	reg     *telemetry.Registry
	latHist *telemetry.Histogram
}

// Option configures an Engine at construction; the engine is never
// mutated after New returns, so option state needs no locking.
type Option func(*Engine)

// WithRegistry attaches a telemetry registry: the engine records a
// per-event processing-latency histogram on the hot path and can be
// registered as a telemetry.Source publishing engine and statement
// counters.
func WithRegistry(reg *telemetry.Registry) Option {
	return func(e *Engine) { e.reg = reg }
}

// WithName sets the engine's metric-name prefix (default "cep"), letting
// several engines — one per EsperBolt task — share a registry without
// colliding.
func WithName(name string) Option {
	return func(e *Engine) { e.name = name }
}

// New creates an engine configured by options.
func New(opts ...Option) *Engine {
	e := &Engine{
		stmts:    make(map[string]*Statement),
		byStream: make(map[string][]*Statement),
		funcs:    make(map[string]ScalarFunc),
		schemas:  make(map[string]*streamSchema),
		views:    make(map[string]*view),
		owned:    make(map[string][]*ownedSet),
		retired:  make(map[string]bool),
		name:     "cep",
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.reg != nil {
		e.latHist = e.reg.Histogram(e.name + ".event_latency_ns")
	}
	return e
}

// RegisterFunction makes a scalar function available to EPL expressions in
// this engine under the given (case-insensitive) name. Registering a name
// twice replaces the previous function.
func (e *Engine) RegisterFunction(name string, fn ScalarFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.funcs[lower(name)] = fn
}

// schemaFor returns stream's slot table, creating it on first use. Called
// with the engine lock held.
func (e *Engine) schemaFor(stream string) *streamSchema {
	sch := e.schemas[stream]
	if sch == nil {
		sch = newStreamSchema()
		e.schemas[stream] = sch
	}
	return sch
}

// bind readies an event for this engine's statements. A stream without a
// schema has no statement reading it, so there is nothing to bind.
func (e *Engine) bind(ev *Event) *Event {
	if sch := e.schemas[ev.Stream]; sch != nil {
		sch.bind(ev)
	}
	return ev
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// AddStatement parses, compiles and registers an EPL statement under a
// unique name. The statement starts receiving events immediately.
func (e *Engine) AddStatement(name, src string) (*Statement, error) {
	q, err := epl.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.AddQuery(name, q)
}

// AddOwnedStatement is AddStatement for a statement restricted to the keys
// the engine owns on field of stream (see Own): an event of stream whose
// field holds no owned key enters none of the statement's windows and
// triggers no evaluation. Events of the statement's other streams are not
// restricted.
func (e *Engine) AddOwnedStatement(name, src, stream, field string) (*Statement, error) {
	q, err := epl.Parse(src)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.register(name, q, e.ownedSet(stream, field))
}

// AddQuery registers an already-parsed query.
func (e *Engine) AddQuery(name string, q *epl.Query) (*Statement, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.register(name, q, nil)
}

// register compiles q and registers it under name, restricted to owned when
// that is not nil. Called with the engine lock held.
func (e *Engine) register(name string, q *epl.Query, owned *ownedSet) (*Statement, error) {
	if _, dup := e.stmts[name]; dup {
		return nil, fmt.Errorf("cep: statement %q already exists", name)
	}
	st, err := compile(name, q, e, owned)
	if err != nil {
		return nil, err
	}
	e.stmts[name] = st
	for stream := range st.itemsByStream {
		e.byStream[stream] = append(e.byStream[stream], st)
	}
	return st, nil
}

// ownedSet is the keys an engine owns on one field of one stream — in the
// traffic topology, the locations Algorithm 1 gave the engine on one
// location field. Statements registered with AddOwnedStatement read the
// stream through it.
type ownedSet struct {
	stream, field string
	// slot is the field's slot in the stream's schema.
	slot int
	keys map[string]bool
	// in reports whether the event being delivered holds an owned key:
	// sendEventAt sets it once per event, before any statement sees it.
	in bool
}

// ownedSet returns the owned-key set for field of stream, creating it empty.
// Called with the engine lock held.
func (e *Engine) ownedSet(stream, field string) *ownedSet {
	for _, o := range e.owned[stream] {
		if o.field == field {
			return o
		}
	}
	o := &ownedSet{stream: stream, field: field, slot: e.schemaFor(stream).slotOf(field), keys: make(map[string]bool)}
	e.owned[stream] = append(e.owned[stream], o)
	return o
}

// Own adds keys to the engine's owned-key set for field of stream and
// returns the ones it did not own yet. From the next event on, statements
// restricted to that set (AddOwnedStatement) see the stream's events that
// carry them.
func (e *Engine) Own(stream, field string, keys ...string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	o := e.ownedSet(stream, field)
	var added []string
	for _, k := range keys {
		if !o.keys[k] {
			o.keys[k] = true
			added = append(added, k)
		}
	}
	return added
}

// Disown removes keys from the owned-key set for field of stream and returns
// how many keys it still holds. What the restricted statements' windows hold
// for a removed key stays there.
func (e *Engine) Disown(stream, field string, keys ...string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	o := e.ownedSet(stream, field)
	for _, k := range keys {
		delete(o.keys, k)
	}
	return len(o.keys)
}

// Owned returns a copy of the owned-key set for field of stream.
func (e *Engine) Owned(stream, field string) map[string]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return maps.Clone(e.ownedSet(stream, field).keys)
}

// RemoveStatement deregisters a statement and releases its views; a view no
// other statement reads goes with it.
func (e *Engine) RemoveStatement(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.stmts[name]
	if !ok {
		return false
	}
	delete(e.stmts, name)
	st.releaseViews()
	e.retired[name] = true
	for stream := range st.itemsByStream {
		list := e.byStream[stream]
		for i, s := range list {
			if s == st {
				e.byStream[stream] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(e.byStream[stream]) == 0 {
			delete(e.byStream, stream)
		}
	}
	return true
}

// Statement returns a registered statement by name.
func (e *Engine) Statement(name string) (*Statement, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.stmts[name]
	return st, ok
}

// StatementNames lists registered statements in sorted order.
func (e *Engine) StatementNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.stmts))
	for n := range e.stmts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StatementCount returns the number of registered statements.
func (e *Engine) StatementCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.stmts)
}

// SendEvent delivers an event with the current wall-clock timestamp. The
// same clock read serves as the event timestamp and the latency-sample
// start, saving a clock read per event on the hot path.
func (e *Engine) SendEvent(stream string, fields map[string]Value) error {
	now := time.Now()
	return e.sendEventAt(stream, now, now, fields)
}

// SendEventAt delivers an event with an explicit timestamp (event time).
// All statements subscribed to the stream process the event serially, in
// statement registration order, except those restricted to an owned-key set
// that does not hold the event's key (AddOwnedStatement), which skip it.
// The first evaluation error is returned, but every statement still sees
// the event. fields is kept, not copied, for as long as a window holds the
// event — the caller must not write to it after the call — and the fields
// statements reference are bound to slots here, once (see Event).
func (e *Engine) SendEventAt(stream string, ts time.Time, fields map[string]Value) error {
	// An explicit (possibly historical) event time must not pollute the
	// latency measurement, so processing start is read separately here.
	return e.sendEventAt(stream, ts, time.Now(), fields)
}

func (e *Engine) sendEventAt(stream string, ts, start time.Time, fields map[string]Value) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.eventsIn++
	var firstErr error
	ev := e.bind(NewEvent(stream, ts, fields))
	for _, o := range e.owned[stream] {
		key, _ := ev.slots[o.slot].(string)
		o.in = o.keys[key]
	}
	for _, st := range e.byStream[stream] {
		if o := st.owned; o != nil && o.stream == stream && !o.in {
			e.eventsUnowned++
			continue
		}
		if err := st.process(ev); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cep: statement %q: %w", st.Name, err)
		}
	}
	elapsed := time.Since(start)
	e.procTime += elapsed
	if e.latHist != nil {
		e.latHist.ObserveDuration(elapsed)
	}
	return firstErr
}

// Describe implements telemetry.Source.
func (e *Engine) Describe() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fmt.Sprintf("cep engine %s: %d statements", e.name, len(e.stmts))
}

// Collect implements telemetry.Source: it publishes the engine counters and
// every statement's counters under <name>.* — the registry-backed
// replacement for Metrics and per-statement StatementMetrics polling.
func (e *Engine) Collect(reg *telemetry.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	prefix := e.name + "."
	reg.Counter(prefix + "events_in").Store(e.eventsIn)
	reg.Counter(prefix + "events_unowned").Store(e.eventsUnowned)
	reg.Gauge(prefix + "proc_time_ns").Set(float64(e.procTime))
	if e.eventsIn > 0 {
		reg.Gauge(prefix + "avg_latency_ns").Set(float64(e.procTime) / float64(e.eventsIn))
	}
	reg.Gauge(prefix + "views").Set(float64(e.viewCount))
	reg.Gauge(prefix + "view_subscriptions").Set(float64(e.viewSubs))
	publish := func(name string, m StatementMetrics) {
		sp := prefix + "stmt." + name + "."
		reg.Counter(sp + "events_in").Store(m.EventsIn)
		reg.Counter(sp + "evaluations").Store(m.Evaluations)
		reg.Counter(sp + "firings").Store(m.Firings)
		reg.Counter(sp + "errors").Store(m.Errors)
	}
	// A removed statement's series read zero from here on, not its last
	// counts; a statement re-added under the name publishes its own below.
	for name := range e.retired {
		publish(name, StatementMetrics{})
		delete(e.retired, name)
	}
	for name, st := range e.stmts {
		publish(name, st.metrics)
	}
}

// AvgLatency returns the mean per-event processing latency observed so far,
// or 0 if no events have been processed. This is the quantity the paper's
// regression model (Functions 1-3) estimates.
func (e *Engine) AvgLatency() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.eventsIn == 0 {
		return 0
	}
	return e.procTime / time.Duration(e.eventsIn)
}

// ResetMetrics zeroes the engine counters (statement counters are kept).
func (e *Engine) ResetMetrics() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.eventsIn, e.eventsUnowned = 0, 0
	e.procTime = 0
}
