package cep

import (
	"fmt"
	"time"

	"trafficcep/internal/epl"
)

// window is the runtime state behind a view: the set of events a view
// chain currently retains. insert returns the events added to
// and removed from the retained set so that join indexes and incremental
// aggregate state can be maintained from deltas alone.
//
// The delta contract every implementation must honor (and that
// TestWindowDeltaContract enforces): after insert, the new contents equal
// the old contents minus `removed` plus `added` as an exact multiset; no
// event appears in both slices; and an event is only ever removed after a
// prior insert reported it added. Incremental evaluation retracts removed
// events from running sums before folding in added ones, so a window that
// under- or over-reports deltas silently corrupts aggregates.
//
// The returned slices are only valid until the next insert on the same
// window: implementations reuse per-window scratch buffers to keep the
// steady-state hot path allocation-free. Callers (statement.process and
// the incremental plan's applyDelta) consume the deltas before inserting
// again; a caller that needs to retain them must copy.
type window interface {
	insert(ev *Event) (added, removed []*Event)
	contents() []*Event
	size() int
}

// view is an engine-owned window: the retained events of one (stream, view
// chain, owned-key restriction), shared by every FROM item that resolved to
// it. A view is open to
// new subscribers only until its first event: FROM items that subscribe
// before it were all going to see the same arrivals from an empty window,
// so one window serves them and each statement's outputs are what a window
// of its own would have produced. A statement registered later — a rule
// Refresh — finds the view fed and gets a fresh one.
//
// The window is inserted into once per event turn, by the first subscriber
// to reach it; the others receive the same delta.
type view struct {
	key  string
	win  window
	refs int

	// lastEv is the event of the latest insert; added/removed its delta. A
	// view that never received an event has lastEv nil.
	lastEv         *Event
	added, removed []*Event
}

func (v *view) insert(ev *Event) (added, removed []*Event) {
	if v.lastEv != ev {
		v.added, v.removed = v.win.insert(ev)
		v.lastEv = ev
	}
	return v.added, v.removed
}

// viewKey renders the registry key of a FROM item's window: the stream, its
// view chain in canonical form (no views is win:keepall) and, when the
// statement is restricted on that stream, the field of its owned-key set —
// a view is shared only by subscribers that see the same arrivals.
func viewKey(stream string, views []epl.ViewSpec, owned *ownedSet) string {
	key := stream
	if len(views) == 0 {
		key += ".win:keepall()"
	}
	for _, v := range views {
		key += "." + v.String()
	}
	if owned != nil && owned.stream == stream {
		key += " owned(" + owned.field + ")"
	}
	return key
}

// acquireView resolves a FROM item of st to a view: the registered one for
// its key if that has not received an event and st does not read it already
// (two items of one statement are updated one at a time and so never share),
// otherwise a new one, which replaces it as the view later statements may
// join. Sharing is safe because every statement reads its windows only
// after all of its items took the event: the plan's per-item accumulators
// are independent of each other, and recompute joins the windows at
// evaluation. Called with the engine lock held.
func (e *Engine) acquireView(st *Statement, f epl.FromItem, sch *streamSchema) (*view, error) {
	key := viewKey(f.Stream, f.Views, st.owned)
	if v := e.views[key]; v != nil && v.lastEv == nil && !st.reads(v) {
		v.refs++
		e.viewSubs++
		return v, nil
	}
	win, err := buildWindow(f.Views, sch)
	if err != nil {
		return nil, err
	}
	v := &view{key: key, win: win, refs: 1}
	e.views[key] = v
	e.viewCount++
	e.viewSubs++
	return v, nil
}

// releaseView drops one subscription; the last one drops the view.
func (e *Engine) releaseView(v *view) {
	v.refs--
	e.viewSubs--
	if v.refs > 0 {
		return
	}
	e.viewCount--
	if e.views[v.key] == v {
		delete(e.views, v.key)
	}
}

// buildWindow compiles a view chain into a window. Supported chains are the
// ones the paper's rules use: nothing (defaults to win:keepall), a single
// view, or std:groupwin(fields...) followed by at most one window view. Key
// fields of groupwin and unique views are resolved to slots of sch, the
// schema of the stream the window reads.
func buildWindow(views []epl.ViewSpec, sch *streamSchema) (window, error) {
	if len(views) == 0 {
		return &keepAllWin{}, nil
	}
	if views[0].Namespace == "std" && views[0].Name == "groupwin" {
		fields := make([]string, len(views[0].Args))
		for i, a := range views[0].Args {
			ref, ok := a.(*epl.FieldRef)
			if !ok {
				return nil, fmt.Errorf("cep: std:groupwin argument %v is not a field", a)
			}
			fields[i] = ref.Field
		}
		rest := views[1:]
		if len(rest) > 1 {
			return nil, fmt.Errorf("cep: unsupported view chain of %d views after groupwin", len(rest))
		}
		factory := func() (window, error) { return buildWindow(rest, sch) }
		// Validate the sub-chain once, eagerly.
		probe, err := factory()
		if err != nil {
			return nil, err
		}
		gw := newGroupWin(sch.slotsOf(fields), factory)
		if lw, ok := probe.(*lengthWin); ok {
			gw.length = lw.n
		}
		return gw, nil
	}
	if len(views) > 1 {
		return nil, fmt.Errorf("cep: unsupported view chain of %d views", len(views))
	}
	return buildSimpleWindow(views[0], sch)
}

func buildSimpleWindow(v epl.ViewSpec, sch *streamSchema) (window, error) {
	key := v.Namespace + ":" + v.Name
	switch key {
	case "std:lastevent":
		return &lastEventWin{}, nil
	case "win:keepall":
		return &keepAllWin{}, nil
	case "win:length":
		n, err := intArg(v, 0)
		if err != nil {
			return nil, err
		}
		return newLengthWin(n), nil
	case "win:length_batch":
		n, err := intArg(v, 0)
		if err != nil {
			return nil, err
		}
		return &lengthBatchWin{n: n}, nil
	case "win:time":
		d, err := durationArg(v, 0)
		if err != nil {
			return nil, err
		}
		return &timeWin{d: d}, nil
	case "win:time_batch":
		d, err := durationArg(v, 0)
		if err != nil {
			return nil, err
		}
		return &timeBatchWin{d: d}, nil
	case "std:unique":
		fields := make([]string, len(v.Args))
		for i, a := range v.Args {
			ref, ok := a.(*epl.FieldRef)
			if !ok {
				return nil, fmt.Errorf("cep: std:unique argument %v is not a field", a)
			}
			fields[i] = ref.Field
		}
		return newUniqueWin(sch.slotsOf(fields)), nil
	}
	return nil, fmt.Errorf("cep: unknown view %s", key)
}

func intArg(v epl.ViewSpec, i int) (int, error) {
	num, ok := v.Args[i].(*epl.NumberLit)
	if !ok {
		return 0, fmt.Errorf("cep: view %s:%s argument %d must be a number literal, got %v",
			v.Namespace, v.Name, i, v.Args[i])
	}
	n := int(num.Value)
	if float64(n) != num.Value || n <= 0 {
		return 0, fmt.Errorf("cep: view %s:%s argument %d must be a positive integer, got %v",
			v.Namespace, v.Name, i, num.Value)
	}
	return n, nil
}

func durationArg(v epl.ViewSpec, i int) (time.Duration, error) {
	switch a := v.Args[i].(type) {
	case *epl.DurationLit:
		if a.Value <= 0 {
			return 0, fmt.Errorf("cep: view %s:%s duration must be positive", v.Namespace, v.Name)
		}
		return a.Value, nil
	case *epl.NumberLit:
		// A bare number means seconds, as in Esper.
		if a.Value <= 0 {
			return 0, fmt.Errorf("cep: view %s:%s duration must be positive", v.Namespace, v.Name)
		}
		return time.Duration(a.Value * float64(time.Second)), nil
	}
	return 0, fmt.Errorf("cep: view %s:%s argument %d must be a duration, got %v",
		v.Namespace, v.Name, i, v.Args[i])
}

// lastEventWin retains only the most recent event (std:lastevent).
type lastEventWin struct {
	ev     *Event
	addBuf [1]*Event
	rmBuf  [1]*Event
}

func (w *lastEventWin) insert(ev *Event) (added, removed []*Event) {
	if w.ev != nil {
		w.rmBuf[0] = w.ev
		removed = w.rmBuf[:]
	}
	w.ev = ev
	w.addBuf[0] = ev
	return w.addBuf[:], removed
}

func (w *lastEventWin) contents() []*Event {
	if w.ev == nil {
		return nil
	}
	return []*Event{w.ev}
}

func (w *lastEventWin) size() int {
	if w.ev == nil {
		return 0
	}
	return 1
}

// keepAllWin retains every event (win:keepall).
type keepAllWin struct {
	evs    []*Event
	addBuf [1]*Event
}

func (w *keepAllWin) insert(ev *Event) (added, removed []*Event) {
	w.evs = append(w.evs, ev)
	w.addBuf[0] = ev
	return w.addBuf[:], nil
}

func (w *keepAllWin) contents() []*Event { return w.evs }
func (w *keepAllWin) size() int          { return len(w.evs) }

// lengthWin is a sliding window over the last n events (win:length).
type lengthWin struct {
	n     int
	buf   []*Event // ring buffer, capacity n
	start int
	count int
	// pos is the slot of buf the latest insert wrote: state kept parallel
	// to the window (groupAcc's value ring) indexes by it.
	pos    int
	addBuf [1]*Event
	rmBuf  [1]*Event
}

func newLengthWin(n int) *lengthWin {
	return &lengthWin{n: n, buf: make([]*Event, n)}
}

func (w *lengthWin) insert(ev *Event) (added, removed []*Event) {
	if w.count == w.n {
		w.pos = w.start
		w.rmBuf[0] = w.buf[w.pos]
		removed = w.rmBuf[:]
		w.start = (w.start + 1) % w.n
	} else {
		w.pos = (w.start + w.count) % w.n
		w.count++
	}
	w.buf[w.pos] = ev
	w.addBuf[0] = ev
	return w.addBuf[:], removed
}

func (w *lengthWin) contents() []*Event {
	out := make([]*Event, 0, w.count)
	for i := 0; i < w.count; i++ {
		out = append(out, w.buf[(w.start+i)%w.n])
	}
	return out
}

func (w *lengthWin) size() int { return w.count }

// lengthBatchWin is a tumbling window of n events (win:length_batch): the
// window fills to n events; the insert after a full batch evicts the whole
// batch and starts a new one.
type lengthBatchWin struct {
	n      int
	buf    []*Event
	addBuf [1]*Event
}

func (w *lengthBatchWin) insert(ev *Event) (added, removed []*Event) {
	if len(w.buf) >= w.n {
		// Ownership of the evicted batch transfers to the caller; a fresh
		// buffer starts the next batch.
		removed = w.buf
		w.buf = nil
	}
	w.buf = append(w.buf, ev)
	w.addBuf[0] = ev
	return w.addBuf[:], removed
}

func (w *lengthBatchWin) contents() []*Event { return w.buf }
func (w *lengthBatchWin) size() int          { return len(w.buf) }

// timeWin retains events within a duration of the most recent event's
// timestamp (win:time). The engine is event-time driven: time advances with
// the timestamps of arriving events, so replays behave identically to live
// runs.
type timeWin struct {
	d      time.Duration
	buf    []*Event
	addBuf [1]*Event
	rmBuf  []*Event
}

func (w *timeWin) insert(ev *Event) (added, removed []*Event) {
	cutoff := ev.Ts.Add(-w.d)
	idx := 0
	for idx < len(w.buf) && w.buf[idx].Ts.Before(cutoff) {
		idx++
	}
	if idx > 0 {
		// Evicted events go into the reusable scratch slice; survivors
		// shift down in place (clearing the tail so the evicted events
		// are not pinned by the backing array).
		w.rmBuf = append(w.rmBuf[:0], w.buf[:idx]...)
		removed = w.rmBuf
		n := copy(w.buf, w.buf[idx:])
		for i := n; i < len(w.buf); i++ {
			w.buf[i] = nil
		}
		w.buf = w.buf[:n]
	}
	w.buf = append(w.buf, ev)
	w.addBuf[0] = ev
	return w.addBuf[:], removed
}

func (w *timeWin) contents() []*Event { return w.buf }
func (w *timeWin) size() int          { return len(w.buf) }

// timeBatchWin is a tumbling time window (win:time_batch): events accumulate
// for the duration d measured from the batch's first event; the first insert
// after the batch period evicts the whole batch and starts a new one. Like
// win:time it is event-time driven.
type timeBatchWin struct {
	d      time.Duration
	start  time.Time
	buf    []*Event
	addBuf [1]*Event
}

func (w *timeBatchWin) insert(ev *Event) (added, removed []*Event) {
	if len(w.buf) > 0 && ev.Ts.Sub(w.start) >= w.d {
		// Ownership of the evicted batch transfers to the caller.
		removed = w.buf
		w.buf = nil
	}
	if len(w.buf) == 0 {
		w.start = ev.Ts
	}
	w.buf = append(w.buf, ev)
	w.addBuf[0] = ev
	return w.addBuf[:], removed
}

func (w *timeBatchWin) contents() []*Event { return w.buf }
func (w *timeBatchWin) size() int          { return len(w.buf) }

// uniqueWin retains the most recent event per distinct key (std:unique):
// a new event with an already-seen key replaces the previous holder.
// Entries are slot pointers so that the steady state — replacing the
// holder of an existing key — mutates the slot in place and never
// materializes the key string (the map lookup on a []byte-to-string
// conversion does not allocate; only first-seen keys do).
type uniqueWin struct {
	keys   []int // event slots forming the key
	byKey  map[string]*uniqueSlot
	order  []*uniqueSlot // slot creation order for deterministic contents
	keyBuf []byte
	addBuf [1]*Event
	rmBuf  [1]*Event
}

type uniqueSlot struct{ ev *Event }

func newUniqueWin(keys []int) *uniqueWin {
	return &uniqueWin{keys: keys, byKey: make(map[string]*uniqueSlot)}
}

func (w *uniqueWin) insert(ev *Event) (added, removed []*Event) {
	w.keyBuf = appendSlotsKey(w.keyBuf[:0], ev, w.keys)
	slot, ok := w.byKey[string(w.keyBuf)]
	if ok {
		w.rmBuf[0] = slot.ev
		removed = w.rmBuf[:]
	} else {
		slot = &uniqueSlot{}
		w.byKey[string(w.keyBuf)] = slot
		w.order = append(w.order, slot)
	}
	slot.ev = ev
	w.addBuf[0] = ev
	return w.addBuf[:], removed
}

func (w *uniqueWin) contents() []*Event {
	out := make([]*Event, 0, len(w.byKey))
	for _, slot := range w.order {
		out = append(out, slot.ev)
	}
	return out
}

func (w *uniqueWin) size() int { return len(w.byKey) }

// groupWin partitions events by the values of its key fields and delegates
// to a per-group sub-window (std:groupwin(...).<view>). Group iteration
// order is group creation order, keeping evaluation deterministic.
type groupWin struct {
	keys    []int // event slots forming the group key
	factory func() (window, error)
	// length is the sub-view's n when it is win:length, 0 otherwise.
	length int
	groups map[string]*group
	order  []*group
	total  int
	keyBuf []byte

	// cur is the group the latest insert went to. A trigger plan whose item
	// is keyed by the group fields folds into, and probes, cur's
	// accumulators: the key this insert rendered and the entry it found
	// serve the window, the fold and the evaluation.
	cur *group
	// subs counts the accumulator slots handed out by subscribe.
	subs int
}

// group is one partition of a groupWin: its sub-window plus, per subscribed
// trigger-plan item, that item's accumulators over the sub-window's events.
type group struct {
	win  window
	accs []groupAcc
}

func newGroupWin(keys []int, factory func() (window, error)) *groupWin {
	return &groupWin{keys: keys, factory: factory, groups: make(map[string]*group)}
}

// subscribe reserves an accumulator slot in every group. Only a view that
// has not received an event takes subscribers, so no group exists yet and
// every group is created with all the slots.
func (w *groupWin) subscribe() int {
	w.subs++
	return w.subs - 1
}

func (w *groupWin) insert(ev *Event) (added, removed []*Event) {
	// Render the group key into the reusable buffer; the key string is
	// only materialized when a new group is created — the lookup on a
	// hit does not allocate.
	w.keyBuf = appendSlotsKey(w.keyBuf[:0], ev, w.keys)
	g, ok := w.groups[string(w.keyBuf)]
	if !ok {
		// The factory was validated at build time; it cannot fail here.
		sub, _ := w.factory()
		g = &group{win: sub, accs: make([]groupAcc, w.subs)}
		w.groups[string(w.keyBuf)] = g
		w.order = append(w.order, g)
	}
	w.cur = g
	added, removed = g.win.insert(ev)
	w.total += len(added) - len(removed)
	return added, removed
}

func (w *groupWin) contents() []*Event {
	out := make([]*Event, 0, w.total)
	for _, g := range w.order {
		out = append(out, g.win.contents()...)
	}
	return out
}

func (w *groupWin) size() int { return w.total }
