package cep

import (
	"fmt"
	"slices"
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
	mu    sync.Mutex
	stmts map[string]*Statement
	funcs map[string]ScalarFunc
	// schemas holds one slot table per stream any statement ever read
	// from; a stream's schema also lists the statements reading it now.
	schemas map[string]*streamSchema
	// views is the window registry: per (stream, view chain) key, the view a
	// new FROM item may still join (see view). viewCount and viewSubs count
	// the live views and the FROM items subscribed to them.
	views               map[string]*view
	viewCount, viewSubs int
	// tables holds the registered table names (RegisterTable).
	tables map[string]*tableRef
	// retired names the statements removed since the last Collect, whose
	// published series that Collect zeroes.
	retired map[string]bool

	// eventsUnowned counts the (statement, event) turns skipped because the
	// event's key is not one the statement's owned-key set holds.
	eventsIn, eventsUnowned uint64
	// procTime sums the per-event processing latency, timed only when a
	// registry is attached.
	procTime time.Duration

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

// WithRegistry attaches a telemetry registry: the engine times every event
// into a per-event processing-latency histogram, and can be registered as a
// telemetry.Source publishing engine and statement counters, the summed
// processing time among them. An engine without one reads no clock to
// process an event.
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
		stmts:   make(map[string]*Statement),
		funcs:   make(map[string]ScalarFunc),
		schemas: make(map[string]*streamSchema),
		views:   make(map[string]*view),
		tables:  make(map[string]*tableRef),
		retired: make(map[string]bool),
		name:    "cep",
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
// triggers no evaluation. Each window item of the statement must be grouped
// on field, so that a disowned key leaves with its groups (Disown). A
// statement reading another stream is not restricted.
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
func (e *Engine) register(name string, q *epl.Query, owned *keyIndex) (*Statement, error) {
	if _, dup := e.stmts[name]; dup {
		return nil, fmt.Errorf("cep: statement %q already exists", name)
	}
	st, err := compile(name, q, e, owned)
	if err != nil {
		return nil, err
	}
	e.stmts[name] = st
	sch := e.schemas[st.stream]
	sch.readers = append(sch.readers, st)
	return st, nil
}

// ownedSet returns the owned-key set for field of stream — in the traffic
// topology, the locations Algorithm 1 gave the engine on one location
// field — creating it empty. It is the field's key index, whose entries
// carry the owned bits; statements registered with AddOwnedStatement read
// the stream through it. Called with the engine lock held.
func (e *Engine) ownedSet(stream, field string) *keyIndex {
	sch := e.schemaFor(stream)
	ki := sch.keyIndexOf(field)
	if !slices.Contains(sch.owned, ki) {
		ki.stream = stream
		sch.owned = append(sch.owned, ki)
	}
	return ki
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
		if en := o.entry(k); !en.owned {
			en.owned = true
			o.owns++
			added = append(added, k)
		}
	}
	return added
}

// Disown removes keys from the owned-key set for field of stream and returns
// how many keys it still holds. The statements restricted to the set forget
// what they windowed for a removed key — each of their windows is grouped
// on field — so that a key gained again starts empty, as a first gain does
// (see dropGroups). Every unrestricted statement's windows keep their
// contents.
func (e *Engine) Disown(stream, field string, keys ...string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	o := e.ownedSet(stream, field)
	var released []*entry
	for _, k := range keys {
		if en := o.entries[k]; en != nil && en.owned {
			en.owned = false
			o.owns--
			released = append(released, en)
		}
	}
	e.dropGroups(o, released)
	return o.owns
}

// dropGroups removes the groups of released entries of owned-key set o from
// every group window keyed on o's field of a statement restricted to o, and
// shrinks the window by what they held; an item's accumulator and value
// ring leave with their group. Called with the engine lock held.
func (e *Engine) dropGroups(o *keyIndex, released []*entry) {
	for _, st := range e.stmts {
		if st.owned != o {
			continue
		}
		for _, ip := range st.inc.items {
			if ip == nil || ip.gw == nil || ip.gw.ki != o {
				continue
			}
			for _, en := range released {
				if g := en.group(ip.gw.num); g != nil {
					ip.gw.total -= g.win.count
					en.groups[ip.gw.num] = nil
				}
			}
		}
	}
}

// Owned returns a copy of the owned-key set for field of stream.
func (e *Engine) Owned(stream, field string) map[string]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]bool)
	for k, en := range e.ownedSet(stream, field).entries {
		if en.owned {
			out[k] = true
		}
	}
	return out
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
	st.inc.detach()
	e.retired[name] = true
	sch := e.schemas[st.stream]
	sch.readers = slices.DeleteFunc(sch.readers, func(r *Statement) bool { return r == st })
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
// same clock read serves as the event timestamp and, with a registry
// attached, the latency-sample start.
func (e *Engine) SendEvent(stream string, fields map[string]Value) error {
	now := time.Now()
	return e.sendEventAt(stream, now, now, fields)
}

// SendEventAt delivers an event with an explicit timestamp (event time).
// All statements subscribed to the stream process the event serially, in
// statement registration order, except those restricted to an owned-key set
// that does not hold the event's key (AddOwnedStatement), which skip it.
// The first evaluation error is returned, but every statement still sees
// the event. fields is kept, not copied, for as long as the engine reads the
// event — as a view's latest event, or the emit representative of its join
// key — so the caller must not write to it after the call; the fields
// statements reference are bound to slots here, once (see Event).
func (e *Engine) SendEventAt(stream string, ts time.Time, fields map[string]Value) error {
	// An explicit (possibly historical) event time must not pollute the
	// latency measurement, so processing start is read separately here, and
	// only when something records it.
	var start time.Time
	if e.latHist != nil {
		start = time.Now()
	}
	return e.sendEventAt(stream, ts, start, fields)
}

// sendEventAt delivers the event; start is when processing began, read only
// with a registry attached (latHist).
func (e *Engine) sendEventAt(stream string, ts, start time.Time, fields map[string]Value) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.eventsIn++
	var firstErr error
	// A stream without a schema has no statement reading it.
	if sch := e.schemas[stream]; sch != nil {
		ev := NewEvent(stream, ts, fields)
		sch.bind(ev)
		for _, o := range sch.owned {
			o.in = ev.ents[o.pos].owned
		}
		for _, st := range sch.readers {
			if o := st.owned; o != nil && o.stream == stream && !o.in {
				e.eventsUnowned++
				continue
			}
			if err := st.process(ev); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("cep: statement %q: %w", st.Name, err)
			}
		}
	}
	if e.latHist != nil {
		elapsed := time.Since(start)
		e.procTime += elapsed
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
	if e.latHist != nil {
		reg.Gauge(prefix + "proc_time_ns").Set(float64(e.procTime))
		if e.eventsIn > 0 {
			reg.Gauge(prefix + "avg_latency_ns").Set(float64(e.procTime) / float64(e.eventsIn))
		}
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
