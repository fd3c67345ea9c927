package cep

import (
	"fmt"

	"trafficcep/internal/epl"
)

// window is the runtime state behind a view: how many events a view chain
// retains and where the latest one went, never the events themselves. Every
// window of the rule template takes the arriving event into one position
// and evicts at most the event that position held: insert returns the
// position and whether it was occupied. State kept parallel to a window —
// an item's value ring — indexes by the position and retracts what it
// recorded there (TestWindowDeltaContract holds every window to it). A group
// window's position is one of the group the event went to (groupWin.cur).
type window interface {
	insert(ev *Event) (pos int, occupied bool)
	size() int
}

// view is an engine-owned window: the count and position of one (stream,
// view chain, owned-key restriction), shared by every FROM item that
// resolved to it. A view is open to new subscribers only until its first
// event: FROM items that subscribe before it were all going to see the same
// arrivals from an empty window, so one window serves them and each
// statement's outputs are what a window of its own would have produced. A
// statement registered later — a rule Refresh — finds the view fed and gets
// a fresh one.
//
// The window is inserted into once per event turn, by the first subscriber
// to reach it; the others receive the same position.
type view struct {
	key  string
	win  window
	refs int

	// lastEv is the event of the latest insert, pos the position it took: a
	// trigger evaluates on its std:lastevent view's lastEv. A view that never
	// received an event has lastEv nil.
	lastEv *Event
	pos    int
}

func (v *view) insert(ev *Event) int {
	if v.lastEv != ev {
		v.pos, _ = v.win.insert(ev)
		v.lastEv = ev
	}
	return v.pos
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
// are independent of each other. Called with the engine lock held.
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
		sub, err := buildWindow(rest, sch)
		if err != nil {
			return nil, err
		}
		return &groupWin{keys: sch.slotsOf(fields), length: bound(sub), groups: make(map[string]*group)}, nil
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
		return &lengthWin{n: 1}, nil
	case "win:keepall":
		return &keepAllWin{}, nil
	case "win:length":
		n, err := intArg(v, 0)
		if err != nil {
			return nil, err
		}
		return &lengthWin{n: n}, nil
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

// bound is the number of positions w has, per group for a group window: 0
// when it never evicts.
func bound(w window) int {
	switch w := w.(type) {
	case *lengthWin:
		return w.n
	case *groupWin:
		return w.length
	}
	return 0
}

// keepAllWin counts the events it retains: every one (win:keepall).
type keepAllWin struct{ n int }

func (w *keepAllWin) insert(*Event) (pos int, occupied bool) {
	w.n++
	return w.n - 1, false
}

func (w *keepAllWin) size() int { return w.n }

// lengthWin is a sliding window over the last n events (win:length, and
// std:lastevent with n 1): its positions 0..n-1 are written in turn, and
// once all n are, each insert evicts the oldest.
type lengthWin struct {
	n, count int
	next     int // the position the next insert writes
}

func (w *lengthWin) insert(*Event) (pos int, occupied bool) {
	pos, occupied = w.next, w.count == w.n
	w.next = (w.next + 1) % w.n
	if !occupied {
		w.count++
	}
	return pos, occupied
}

func (w *lengthWin) size() int { return w.count }

// groupWin partitions events by the values of its key fields and delegates
// to a per-group sub-window (std:groupwin(...).<view>): a length window of
// the sub-view's bound or, for an unbounded sub-view, a count.
type groupWin struct {
	keys []int // event slots forming the group key
	// length is the sub-view's bound, 0 when it never evicts.
	length int
	groups map[string]*group
	total  int
	keyBuf []byte

	// cur is the group the latest insert went to, and the group its
	// position is in. A trigger plan item over the window folds into cur's
	// value rings; a key-aligned one also probes cur's accumulators: the
	// key this insert rendered and the entry it found serve the window,
	// the fold and the evaluation.
	cur *group
	// subs counts the accumulator slots handed out by subscribe.
	subs int
}

// group is one partition of a groupWin: its sub-window plus, per subscribed
// trigger-plan item, that item's value ring (and, for a key-aligned item,
// its accumulators) over the sub-window's positions.
type group struct {
	win  window
	accs []groupAcc
}

// subscribe reserves an accumulator slot in every group. Only a view that
// has not received an event takes subscribers, so no group exists yet and
// every group is created with all the slots.
func (w *groupWin) subscribe() int {
	w.subs++
	return w.subs - 1
}

func (w *groupWin) insert(ev *Event) (pos int, occupied bool) {
	// Render the group key into the reusable buffer; the key string is
	// only materialized when a new group is created — the lookup on a
	// hit does not allocate.
	w.keyBuf = appendSlotsKey(w.keyBuf[:0], ev, w.keys)
	g, ok := w.groups[string(w.keyBuf)]
	if !ok {
		g = &group{win: &keepAllWin{}, accs: make([]groupAcc, w.subs)}
		if w.length > 0 {
			g.win = &lengthWin{n: w.length}
		}
		w.groups[string(w.keyBuf)] = g
	}
	w.cur = g
	if pos, occupied = g.win.insert(ev); !occupied {
		w.total++
	}
	return pos, occupied
}

func (w *groupWin) size() int { return w.total }
