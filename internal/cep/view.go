package cep

import (
	"fmt"

	"trafficcep/internal/epl"
)

// window is the runtime state behind a view: the set of events a view
// chain currently retains. Every window of the rule template takes the
// arriving event and evicts at most one: insert returns that evicted event,
// or nil, so that join indexes and incremental aggregate state can be
// maintained from the delta alone. After insert, the new contents are the
// old contents minus evicted plus ev (TestWindowDeltaContract holds every
// window to it); an evicted event that was never inserted would silently
// corrupt the running sums incremental evaluation retracts it from.
type window interface {
	insert(ev *Event) (evicted *Event)
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
// to reach it; the others receive the same eviction.
type view struct {
	key  string
	win  window
	refs int

	// lastEv is the event of the latest insert; evicted what it evicted. A
	// view that never received an event has lastEv nil.
	lastEv  *Event
	evicted *Event
}

func (v *view) insert(ev *Event) (evicted *Event) {
	if v.lastEv != ev {
		v.evicted = v.win.insert(ev)
		v.lastEv = ev
	}
	return v.evicted
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
// fields of groupwin are resolved to slots of sch, the schema of the stream
// the window reads.
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
	return buildSimpleWindow(views[0])
}

func buildSimpleWindow(v epl.ViewSpec) (window, error) {
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

// lastEventWin retains only the most recent event (std:lastevent).
type lastEventWin struct{ ev *Event }

func (w *lastEventWin) insert(ev *Event) (evicted *Event) {
	evicted, w.ev = w.ev, ev
	return evicted
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
type keepAllWin struct{ evs []*Event }

func (w *keepAllWin) insert(ev *Event) (evicted *Event) {
	w.evs = append(w.evs, ev)
	return nil
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
	pos int
}

func newLengthWin(n int) *lengthWin {
	return &lengthWin{n: n, buf: make([]*Event, n)}
}

func (w *lengthWin) insert(ev *Event) (evicted *Event) {
	if w.count == w.n {
		w.pos = w.start
		evicted = w.buf[w.pos]
		w.start = (w.start + 1) % w.n
	} else {
		w.pos = (w.start + w.count) % w.n
		w.count++
	}
	w.buf[w.pos] = ev
	return evicted
}

func (w *lengthWin) contents() []*Event {
	out := make([]*Event, 0, w.count)
	for i := 0; i < w.count; i++ {
		out = append(out, w.buf[(w.start+i)%w.n])
	}
	return out
}

func (w *lengthWin) size() int { return w.count }

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

func (w *groupWin) insert(ev *Event) (evicted *Event) {
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
	if evicted = g.win.insert(ev); evicted == nil {
		w.total++
	}
	return evicted
}

func (w *groupWin) contents() []*Event {
	out := make([]*Event, 0, w.total)
	for _, g := range w.order {
		out = append(out, g.win.contents()...)
	}
	return out
}

func (w *groupWin) size() int { return w.total }
