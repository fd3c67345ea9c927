package cep

import (
	"fmt"
	"strings"

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

	// lastEv is the event of the latest insert, pos the position it took;
	// it is what a std:lastevent view holds. A view that never received an
	// event has lastEv nil.
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
// view chain in canonical form and, when the statement is restricted on
// that stream, the field of its owned-key set — a view is shared only by
// subscribers that see the same arrivals.
func viewKey(stream string, views []epl.ViewSpec, owned *keyIndex) string {
	key := stream + "." + viewChain(views)
	if owned != nil && owned.stream == stream {
		key += " owned(" + owned.field + ")"
	}
	return key
}

// viewChain renders a view chain in canonical form.
func viewChain(views []epl.ViewSpec) string {
	s := make([]string, len(views))
	for i, v := range views {
		s[i] = v.String()
	}
	return strings.Join(s, ".")
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
	if gw, ok := v.win.(*groupWin); ok {
		gw.ki.releaseWin(gw.num)
	}
}

// buildWindow compiles a view chain into a window: a length window
// (win:length, or std:lastevent of length 1), or std:groupwin(f) over one,
// whose groups live in the entries of the key index of f in sch, the schema
// of the stream the window reads.
func buildWindow(views []epl.ViewSpec, sch *streamSchema) (window, error) {
	if len(views) == 2 && views[0].Namespace == "std" && views[0].Name == "groupwin" {
		if len(views[0].Args) != 1 {
			return nil, fmt.Errorf("cep: std:groupwin takes one key field, got %d", len(views[0].Args))
		}
		ref, ok := views[0].Args[0].(*epl.FieldRef)
		if !ok {
			return nil, fmt.Errorf("cep: std:groupwin argument %v is not a field", views[0].Args[0])
		}
		n, err := lengthOf(views[1])
		if err != nil {
			return nil, err
		}
		w := &groupWin{length: n, ki: sch.keyIndexOf(ref.Field)}
		w.num = w.ki.addWin(w)
		return w, nil
	}
	if len(views) != 1 {
		return nil, fmt.Errorf("cep: unsupported view chain %s", viewChain(views))
	}
	n, err := lengthOf(views[0])
	if err != nil {
		return nil, err
	}
	return &lengthWin{n: n}, nil
}

// lengthOf returns the length of a std:lastevent or win:length view.
func lengthOf(v epl.ViewSpec) (int, error) {
	switch v.Namespace + ":" + v.Name {
	case "std:lastevent":
		return 1, nil
	case "win:length":
		return intArg(v, 0)
	}
	return 0, fmt.Errorf("cep: unsupported view %s:%s", v.Namespace, v.Name)
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

// groupWin partitions events by the value of its key field and delegates
// to a per-group length window (std:groupwin(f).win:length(n)). A group
// lives in the entry of its key in the field's key index: groups[num] of
// the entry bind found for the event.
type groupWin struct {
	length int
	ki     *keyIndex
	num    int
	total  int

	// cur is the group the latest insert went to, and the group its
	// position is in. A trigger plan item over the window folds into cur,
	// and probes it: the group of the trigger's event.
	cur *group
	// subs counts the accumulator slots handed out by subscribe.
	subs int
}

// group is one partition of a groupWin: its length window plus, per
// subscribed trigger-plan item, that item's accumulator and value ring over
// the window's positions. The state of up to two items lives in the group
// itself: an arrival reaches its window, fold and probe through one object.
type group struct {
	win    lengthWin
	accs   []groupAcc
	accBuf [2]groupAcc
}

// subscribe reserves an accumulator slot in every group. Only a view that
// has not received an event takes subscribers, so no group exists yet and
// every group is created with all the slots.
func (w *groupWin) subscribe() int {
	w.subs++
	return w.subs - 1
}

func (w *groupWin) newGroup() *group {
	g := &group{win: lengthWin{n: w.length}}
	if w.subs <= len(g.accBuf) {
		g.accs = g.accBuf[:w.subs:w.subs]
	} else {
		g.accs = make([]groupAcc, w.subs)
	}
	return g
}

func (w *groupWin) insert(ev *Event) (pos int, occupied bool) {
	en := ev.ents[w.ki.pos]
	g := en.group(w.num)
	if g == nil {
		g = w.newGroup()
		en.setGroup(w.num, g)
	}
	w.cur = g
	pos, occupied = g.win.insert(ev)
	if !occupied {
		w.total++
	}
	return pos, occupied
}

func (w *groupWin) size() int { return w.total }
