package cep

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Event is one unit of streaming data: a named stream plus a flat set of
// fields. Events are immutable once sent to an engine.
type Event struct {
	Stream string
	Ts     time.Time
	// Fields is the map the caller sent, never copied: listeners read any
	// field through it, whether or not a statement references it.
	Fields map[string]Value

	// slots holds the fields the engine's statements reference, at the
	// positions of the stream's schema, bound once when the event enters
	// the engine (streamSchema.bind). Everything a statement does with an
	// event after that — expressions, window and join keys — indexes slots
	// and leaves Fields alone: an event leaving a window long after it
	// arrived costs one cache miss instead of a cold map probe. A field the
	// event lacks binds nil, which is what a missing field reads as.
	slots []Value
	// ents holds, per key index of the stream's schema, the entry of the
	// event's value in that field: the one lookup through which the engine
	// reaches the location's owned bit, groups and table rows (see
	// keyIndex). entBuf backs it for up to two indexed fields.
	ents   []*entry
	entBuf [2]*entry
}

// streamSchema is an engine's field → slot table for one stream. It only
// grows, and only while a statement is being registered or an owned-key set
// created, so a slot index baked into a compiled statement stays valid for
// the engine's lifetime. A statement registered later may append slots;
// events bound before that carry the shorter slice, but they sit only in
// views whose subscribers were all compiled against the shorter schema (a
// view takes no subscriber after its first event), and an owned-key set
// reads its slot from the event being delivered alone, so no index ever
// exceeds the slice it meets (a violation would be an index-out-of-range
// panic, not a silent wrong read).
type streamSchema struct {
	names []string
	slot  map[string]int
	// keyed are the stream's key indexes, in creation order: an index's
	// position is where bind puts its entry in Event.ents. owned are the
	// ones that are owned-key sets (Engine.Own), checked on every event.
	keyed, owned []*keyIndex
	// readers are the engine's statements reading the stream, in
	// registration order.
	readers []*Statement
}

func newStreamSchema() *streamSchema {
	return &streamSchema{slot: make(map[string]int)}
}

// slotOf returns field's slot, appending one if the field is new.
func (s *streamSchema) slotOf(field string) int {
	i, ok := s.slot[field]
	if !ok {
		i = len(s.names)
		s.names = append(s.names, field)
		s.slot[field] = i
	}
	return i
}

// slotsOf is slotOf over a field list.
func (s *streamSchema) slotsOf(fields []string) []int {
	out := make([]int, len(fields))
	for i, f := range fields {
		out[i] = s.slotOf(f)
	}
	return out
}

// bind fills ev.slots from ev.Fields — one map lookup per referenced field,
// on the map the caller has just built — and ev.ents, one lookup per key
// index.
func (s *streamSchema) bind(ev *Event) {
	ev.slots = make([]Value, len(s.names))
	for i, name := range s.names {
		ev.slots[i] = ev.Fields[name]
	}
	if len(s.keyed) == 0 {
		return
	}
	ev.ents = ev.entBuf[:0]
	for _, ki := range s.keyed {
		ev.ents = append(ev.ents, ki.entryOf(ev.slots[ki.slot]))
	}
}

// keyIndexOf returns field's key index, creating it if the field has none.
// Like a slot, an index is created only while a statement is registered or
// an owned-key set made, and an event bound before it is never read through
// it (see streamSchema).
func (s *streamSchema) keyIndexOf(field string) *keyIndex {
	for _, ki := range s.keyed {
		if ki.field == field {
			return ki
		}
	}
	ki := &keyIndex{field: field, slot: s.slotOf(field), pos: len(s.keyed),
		entries: make(map[string]*entry), others: make(map[string]*entry)}
	s.keyed = append(s.keyed, ki)
	return ki
}

// keyIndex is the per-location state of one field of one stream: one entry
// per value the field carried — in the traffic topology, per location —
// found once per event by bind. A field gets an index when it is an
// owned-key set's (Own, AddOwnedStatement), the key of a std:groupwin, or
// the trigger field joined to a table's first key column; the owned test,
// the group window's insert and the table probe then read the event's entry
// instead of hashing the value again each. A string's entry is in entries,
// by the string; any other value's in others, by valueKey, so that values
// that join alike share one.
type keyIndex struct {
	field   string
	slot    int // the field's slot in the stream's schema
	pos     int // the index's position in Event.ents
	entries map[string]*entry
	others  map[string]*entry

	// As an owned-key set: stream names the set's stream, owns counts
	// the entries owned, and in reports whether the event being delivered
	// holds an owned key — sendEventAt sets it once per event, before any
	// statement sees it.
	stream string
	owns   int
	in     bool

	// wins are the group windows keyed on the field and tabs the table
	// items joined through it, by number; a released number is free (nil,
	// or false). An entry's groups and tabs are indexed alike.
	wins []*groupWin
	tabs []bool
}

// entry is one value's state under a key index. It holds the groups of up
// to three windows and the state of up to two table items itself, so that
// an insert or a probe finds them in the entry bind just read.
type entry struct {
	owned    bool
	groups   []*group
	tabs     []tableProbe
	groupBuf [3]*group
	tabBuf   [2]tableProbe
}

// tableProbe is an entry's state for one table item: the block of the
// entry's value in table version ver (found false when it has no row
// there), and the accumulator of the rows the probe key q matched in it,
// valid while ok. A location is probed with one hour and day for an hour on
// end, so a probe is mostly a comparison of q.
type tableProbe struct {
	ver       *Table
	blk       span
	found, ok bool
	q         []keyVal
	acc       itemAcc
	aggBuf    [1]aggAcc
}

// entry returns string k's entry, creating it.
func (ki *keyIndex) entry(k string) *entry {
	en := ki.entries[k]
	if en == nil {
		en = &entry{}
		ki.entries[k] = en
	}
	return en
}

// entryOf returns v's entry, creating it.
func (ki *keyIndex) entryOf(v Value) *entry {
	if k, ok := v.(string); ok {
		return ki.entry(k)
	}
	k := valueKey(v)
	en := ki.others[k]
	if en == nil {
		en = &entry{}
		ki.others[k] = en
	}
	return en
}

// each calls f on every entry.
func (ki *keyIndex) each(f func(*entry)) {
	for _, en := range ki.entries {
		f(en)
	}
	for _, en := range ki.others {
		f(en)
	}
}

// addWin numbers a group window keyed on the index's field.
func (ki *keyIndex) addWin(w *groupWin) int {
	n := slices.Index(ki.wins, nil)
	if n < 0 {
		n = len(ki.wins)
		ki.wins = append(ki.wins, nil)
	}
	ki.wins[n] = w
	return n
}

// releaseWin frees window n's number and drops its groups from every entry,
// so that a window given the number later starts empty.
func (ki *keyIndex) releaseWin(n int) {
	ki.wins[n] = nil
	ki.each(func(en *entry) {
		if n < len(en.groups) {
			en.groups[n] = nil
		}
	})
}

// addTab numbers a table item joined through the index's field.
func (ki *keyIndex) addTab() int {
	n := slices.Index(ki.tabs, false)
	if n < 0 {
		n = len(ki.tabs)
		ki.tabs = append(ki.tabs, false)
	}
	ki.tabs[n] = true
	return n
}

// releaseTab frees table item n's number and its state in every entry.
func (ki *keyIndex) releaseTab(n int) {
	ki.tabs[n] = false
	ki.each(func(en *entry) {
		if n < len(en.tabs) {
			en.tabs[n] = tableProbe{}
		}
	})
}

// group returns the entry's group of window n, nil when it has none.
func (en *entry) group(n int) *group {
	if n >= len(en.groups) {
		return nil
	}
	return en.groups[n]
}

func (en *entry) setGroup(n int, g *group) {
	switch {
	case n < len(en.groups):
	case n < len(en.groupBuf):
		en.groups = en.groupBuf[:n+1]
	default:
		en.groups = append(en.groups, make([]*group, n+1-len(en.groups))...)
	}
	en.groups[n] = g
}

// tab returns the entry's state for table item n.
func (en *entry) tab(n int) *tableProbe {
	switch {
	case n < len(en.tabs):
	case n < len(en.tabBuf):
		en.tabs = en.tabBuf[:n+1]
	default:
		en.tabs = append(en.tabs, make([]tableProbe, n+1-len(en.tabs))...)
	}
	return &en.tabs[n]
}

// NewEvent builds an event. The fields map is used as-is; callers must not
// mutate it after the call.
func NewEvent(stream string, ts time.Time, fields map[string]Value) *Event {
	return &Event{Stream: stream, Ts: ts, Fields: fields}
}

// Get returns a field value; missing fields read as nil.
func (e *Event) Get(field string) Value { return e.Fields[field] }

// String implements fmt.Stringer with deterministic field order.
func (e *Event) String() string {
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := e.Stream + "{"
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%v", k, e.Fields[k])
	}
	return s + "}"
}

// Output is one rule firing: the projected fields of a match, plus the
// underlying join row (alias → event) for listeners that need raw access.
//
// The Row is a representative of the matched join rows, not an
// enumeration: the trigger event, and for every other item the most
// recently added event of the matched join key. Listeners must not read
// fields that vary across the join rows through it.
type Output struct {
	Fields map[string]Value
	Row    map[string]*Event
}

// Listener receives the outputs produced by one evaluation of a statement —
// the "actions to be taken when the rule is activated" of §2.1.2.
type Listener func(stmt *Statement, outputs []Output)
