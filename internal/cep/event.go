package cep

import (
	"fmt"
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

// bind fills ev.slots from ev.Fields: one map lookup per referenced field,
// on the map the caller has just built.
func (s *streamSchema) bind(ev *Event) {
	ev.slots = make([]Value, len(s.names))
	for i, name := range s.names {
		ev.slots[i] = ev.Fields[name]
	}
}

// appendSlotsKey appends the composite hash key of ev's values at slots —
// appendCompositeKey over those values — to buf.
func appendSlotsKey(buf []byte, ev *Event, slots []int) []byte {
	for i, sl := range slots {
		if i > 0 {
			buf = append(buf, keySep)
		}
		buf = appendValueKey(buf, ev.slots[sl])
	}
	return buf
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
// For grouped or aggregated statements the Row is a representative of the
// group, not a full enumeration: the recompute path binds the group's last
// join row, and incremental evaluation binds the most recently added row
// of the maintained group state. The two representatives can differ even
// though Fields are identical; listeners must not read group-varying
// fields through Row.
type Output struct {
	Fields map[string]Value
	Row    map[string]*Event
}

// Listener receives the outputs produced by one evaluation of a statement —
// the "actions to be taken when the rule is activated" of §2.1.2.
type Listener func(stmt *Statement, outputs []Output)
