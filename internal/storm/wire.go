package storm

// Length-prefixed wire codec for the peer links.
//
// A frame is `uint32 big-endian payload length | payload`, and the payload
// starts with a one-byte frame type. Batch frames carry the destination
// executor's dense id and the envelopes — local task index, anchored root id and edge id, stream, optional trace
// context, and the payload values under a typed tag-per-value codec that
// round-trips every Go type the topologies emit. Unsupported payload types
// fail encoding; the transport surfaces the failure as a counted drop
// rather than shipping a lossy rendering.
//
// Decoding copies everything out of the receive buffer: strings are
// materialized with string() and maps/slices are freshly allocated, so the
// pooled read buffer can be reused for the next frame the moment a decode
// returns. This mirrors the in-process batch-pool contract (the receiver
// releases transport memory only after the payload no longer references
// it) and is what keeps the acker's replay snapshots valid: a root cached
// at EmitAnchored time — or a failed envelope executed long after arrival —
// never aliases wire memory.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"trafficcep/internal/telemetry"
)

// Frame types.
const (
	frameHello        byte = iota + 1 // worker id handshake, dialer → acceptor
	frameBatch                        // envelope batch for one executor
	frameEOF                          // a sender-side executor exited
	_                                 // 4 is reserved (a retired ack frame); rejected as unknown
	_                                 // 5 and 6 are reserved (the retired drain frames,
	_                                 // frameFence/frameFenceAck); rejected as unknown
	frameHeartbeat                    // liveness keepalive
	_                                 // 8 is reserved (the retired control request/response frame); rejected as unknown
	frameAckBatch                     // coalesced XOR-acker checksum updates
	frameEpochBarrier                 // aligned epoch barrier for one executor
	frameEpoch                        // one-way epoch-protocol message (epoch.go)
)

const (
	// frameHeaderLen is the length prefix size.
	frameHeaderLen = 4
	// maxFramePayload bounds a frame's payload; decoders reject larger
	// length prefixes before allocating anything.
	maxFramePayload = 64 << 20
)

// beginFrame starts a frame of the given type in buf, reserving the length
// prefix; endFrame backfills it. Frames are always built from offset 0 of
// a (reused) buffer.
func beginFrame(buf []byte, typ byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, typ)
}

func endFrame(buf []byte) []byte {
	binary.BigEndian.PutUint32(buf[:frameHeaderLen], uint32(len(buf)-frameHeaderLen))
	return buf
}

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendVarint(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

func appendWireString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// --- value codec ---

// Value type tags. Every tag preserves the exact Go type through a
// round-trip, so fields-grouping hashes and bolt type switches behave
// identically on both sides of the wire.
const (
	wNil byte = iota
	wFalse
	wTrue
	wInt
	wInt64
	wUint64
	wFloat64
	wFloat32
	wString
	wBytes
	wTime
	wStrings
	wSlice
	wMap
)

func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, wNil), nil
	case bool:
		if x {
			return append(dst, wTrue), nil
		}
		return append(dst, wFalse), nil
	case int:
		return appendVarint(append(dst, wInt), int64(x)), nil
	case int64:
		return appendVarint(append(dst, wInt64), x), nil
	case uint64:
		return appendUvarint(append(dst, wUint64), x), nil
	case float64:
		return binary.BigEndian.AppendUint64(append(dst, wFloat64), math.Float64bits(x)), nil
	case float32:
		return binary.BigEndian.AppendUint32(append(dst, wFloat32), math.Float32bits(x)), nil
	case string:
		return appendWireString(append(dst, wString), x), nil
	case []byte:
		dst = appendUvarint(append(dst, wBytes), uint64(len(x)))
		return append(dst, x...), nil
	case time.Time:
		return appendVarint(append(dst, wTime), x.UnixNano()), nil
	case []string:
		dst = appendUvarint(append(dst, wStrings), uint64(len(x)))
		for _, s := range x {
			dst = appendWireString(dst, s)
		}
		return dst, nil
	case []any:
		dst = appendUvarint(append(dst, wSlice), uint64(len(x)))
		var err error
		for _, e := range x {
			if dst, err = appendValue(dst, e); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case map[string]any:
		dst = appendUvarint(append(dst, wMap), uint64(len(x)))
		var err error
		for k, e := range x {
			dst = appendWireString(dst, k)
			if dst, err = appendValue(dst, e); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	return nil, fmt.Errorf("storm: unsupported wire value type %T", v)
}

var errShortFrame = fmt.Errorf("storm: truncated wire frame")

func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortFrame
	}
	return v, b[n:], nil
}

func decodeVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errShortFrame
	}
	return v, b[n:], nil
}

func decodeWireString(b []byte) (string, []byte, error) {
	n, b, err := decodeUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return "", nil, errShortFrame
	}
	return string(b[:n]), b[n:], nil
}

// decodeValue decodes one tagged value, copying all memory out of b.
// Strings — a string value, a []string's elements, a nested map's keys —
// come from d's intern table.
func (d *frameDecoder) decodeValue(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, errShortFrame
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case wNil:
		return nil, b, nil
	case wFalse:
		return false, b, nil
	case wTrue:
		return true, b, nil
	case wInt:
		v, rest, err := decodeVarint(b)
		return int(v), rest, err
	case wInt64:
		return decodeVarint(b)
	case wUint64:
		return decodeUvarint(b)
	case wFloat64:
		if len(b) < 8 {
			return nil, nil, errShortFrame
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
	case wFloat32:
		if len(b) < 4 {
			return nil, nil, errShortFrame
		}
		return math.Float32frombits(binary.BigEndian.Uint32(b)), b[4:], nil
	case wString:
		n, rest, err := decodeUvarint(b)
		if err != nil || n > uint64(len(rest)) {
			return nil, nil, errShortFrame
		}
		return d.boxed(rest[:n]), rest[n:], nil
	case wBytes:
		n, rest, err := decodeUvarint(b)
		if err != nil || n > uint64(len(rest)) {
			return nil, nil, errShortFrame
		}
		return append([]byte(nil), rest[:n]...), rest[n:], nil
	case wTime:
		v, rest, err := decodeVarint(b)
		return time.Unix(0, v), rest, err
	case wStrings:
		n, rest, err := decodeUvarint(b)
		if err != nil || n > uint64(len(rest)) {
			return nil, nil, errShortFrame
		}
		out := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			var s string
			if s, rest, err = d.decodeStr(rest); err != nil {
				return nil, nil, err
			}
			out = append(out, s)
		}
		return out, rest, nil
	case wSlice:
		n, rest, err := decodeUvarint(b)
		if err != nil || n > uint64(len(rest)) {
			return nil, nil, errShortFrame
		}
		out := make([]any, 0, n)
		for i := uint64(0); i < n; i++ {
			var e any
			if e, rest, err = d.decodeValue(rest); err != nil {
				return nil, nil, err
			}
			out = append(out, e)
		}
		return out, rest, nil
	case wMap:
		n, rest, err := decodeUvarint(b)
		if err != nil || n > uint64(len(rest)) {
			return nil, nil, errShortFrame
		}
		out := make(map[string]any, n)
		for i := uint64(0); i < n; i++ {
			var k string
			var e any
			if k, rest, err = d.decodeStr(rest); err != nil {
				return nil, nil, err
			}
			if e, rest, err = d.decodeValue(rest); err != nil {
				return nil, nil, err
			}
			out[k] = e
		}
		return out, rest, nil
	}
	return nil, nil, fmt.Errorf("storm: unknown wire value tag %d", tag)
}

// --- batch frames ---

// appendBatchFrame encodes a complete batch frame (header included) into
// buf. The envelopes' ack ids are written as-is: XOR-acker root ids are
// global (the owning worker is encoded in the low bits).
func appendBatchFrame(buf []byte, destEID int, envs []envelope) ([]byte, error) {
	buf = beginFrame(buf, frameBatch)
	buf = appendUvarint(buf, uint64(destEID))
	buf = appendUvarint(buf, uint64(len(envs)))
	var err error
	for i := range envs {
		env := &envs[i]
		buf = appendUvarint(buf, uint64(env.local))
		buf = appendUvarint(buf, env.tuple.ack)
		if env.tuple.ack != 0 {
			// Anchored envelopes carry their XOR-acker edge id.
			buf = binary.BigEndian.AppendUint64(buf, env.tuple.edge)
		}
		buf = appendWireString(buf, env.tuple.Stream)
		if tr := env.tuple.Trace; tr.Active() {
			buf = append(buf, 1)
			buf = appendVarint(buf, tr.StartNanos)
			buf = appendVarint(buf, tr.EmitNanos)
			buf = appendUvarint(buf, uint64(tr.Hops))
		} else {
			buf = append(buf, 0)
		}
		buf = appendUvarint(buf, uint64(len(env.tuple.Values)))
		for k, v := range env.tuple.Values {
			buf = appendWireString(buf, k)
			if buf, err = appendValue(buf, v); err != nil {
				return nil, err
			}
		}
	}
	return endFrame(buf), nil
}

// frameDecoder is one reader goroutine's decode state: a bounded string
// intern table and the releaseAnchors per-owner ack scratch (tcp.go). One
// decoder per connection, owned by its readLoop — never shared.
//
// Stream names, map keys and most string values repeat endlessly across
// frames: a Figure 8 row carries 26 keys, and its string values — vehicle,
// line, stop and area ids, the nine areaPath elements — come from sets of a
// few thousand at most. The table maps a string's bytes to the string
// already boxed in an interface, so a repeat costs one map probe (the
// string(b) lookup key does not allocate) and neither a string nor its
// box. Strings longer than maxInternLen are taken to be unique payload
// data and skipped; the table is emptied when it reaches maxInterned
// entries, so hostile churn can cost lookups but never unbounded memory.
type frameDecoder struct {
	r   *Runtime
	tab map[string]any

	// releaseAnchors scratch: per-owning-worker ackUpdate slices plus the
	// dirty-owner list, reused across batches (see tcp.go).
	ackScratch [][]ackUpdate
	ackDirty   []int
}

// Intern-table bounds: the longest string interned, and the most entries
// the table holds before it starts over.
const (
	maxInternLen = 64
	maxInterned  = 1 << 14
)

// boxed materializes b as a string in an interface, returning the interned
// copy when one exists.
func (d *frameDecoder) boxed(b []byte) any {
	if len(b) > maxInternLen {
		return string(b)
	}
	if v, ok := d.tab[string(b)]; ok {
		return v
	}
	if len(d.tab) >= maxInterned {
		clear(d.tab)
	}
	if d.tab == nil {
		d.tab = make(map[string]any)
	}
	s := string(b)
	v := any(s)
	d.tab[s] = v
	return v
}

// str is boxed for callers that want the string itself.
func (d *frameDecoder) str(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
	return d.boxed(b).(string)
}

// decodeStr is decodeWireString through the intern table.
func (d *frameDecoder) decodeStr(b []byte) (string, []byte, error) {
	n, b, err := decodeUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return "", nil, errShortFrame
	}
	return d.str(b[:n]), b[n:], nil
}

// decodeBatchFrame decodes a batch frame payload (type byte already
// consumed) into a pooled batch whose payloads share no memory with b.
// This is the Runtime-method entry point; it pays for a fresh
// decoder (an empty intern table) and exists for tests and one-shot
// callers — the hot path is the frameDecoder method below.
func (r *Runtime) decodeBatchFrame(b []byte) (int, *batch, error) {
	d := frameDecoder{r: r}
	return d.decodeBatchFrame(b)
}

// decodeBatchFrame (frameDecoder) is the hot-path decode: each envelope's
// Values is a fresh map sized for the fields the frame announces (bounded,
// so a hostile count cannot reserve memory the frame does not pay for) and
// owned by whoever receives it, like any emitted map; stream names, keys
// and strings among the values come from the intern table.
func (d *frameDecoder) decodeBatchFrame(b []byte) (destEID int, bt *batch, err error) {
	r := d.r
	var v uint64
	if v, b, err = decodeUvarint(b); err != nil {
		return 0, nil, err
	}
	destEID = int(v)
	var count uint64
	if count, b, err = decodeUvarint(b); err != nil {
		return 0, nil, err
	}
	if count > uint64(len(b))+1 { // every envelope costs ≥1 byte on the wire
		return 0, nil, errShortFrame
	}
	bt = r.getBatch()
	fail := func(e error) (int, *batch, error) {
		r.putBatch(bt)
		return 0, nil, e
	}
	for i := uint64(0); i < count; i++ {
		var env envelope
		if v, b, err = decodeUvarint(b); err != nil {
			return fail(err)
		}
		env.local = int(v)
		if env.tuple.ack, b, err = decodeUvarint(b); err != nil {
			return fail(err)
		}
		if env.tuple.ack != 0 {
			if len(b) < 8 {
				return fail(errShortFrame)
			}
			env.tuple.edge = binary.BigEndian.Uint64(b)
			b = b[8:]
		}
		if env.tuple.Stream, b, err = d.decodeStr(b); err != nil {
			return fail(err)
		}
		if len(b) == 0 {
			return fail(errShortFrame)
		}
		traced := b[0] != 0
		b = b[1:]
		if traced {
			var tr telemetry.TupleTrace
			if tr.StartNanos, b, err = decodeVarint(b); err != nil {
				return fail(err)
			}
			if tr.EmitNanos, b, err = decodeVarint(b); err != nil {
				return fail(err)
			}
			if v, b, err = decodeUvarint(b); err != nil {
				return fail(err)
			}
			tr.Hops = int32(v)
			env.tuple.Trace = tr
		}
		var nvals uint64
		if nvals, b, err = decodeUvarint(b); err != nil {
			return fail(err)
		}
		if nvals > uint64(len(b)) {
			return fail(errShortFrame)
		}
		if nvals > 0 {
			env.tuple.Values = make(map[string]any, min(max(nvals, 8), 64))
			for j := uint64(0); j < nvals; j++ {
				var k string
				var val any
				if k, b, err = d.decodeStr(b); err != nil {
					return fail(err)
				}
				if val, b, err = d.decodeValue(b); err != nil {
					return fail(err)
				}
				env.tuple.Values[k] = val
			}
		}
		bt.envs = append(bt.envs, env)
	}
	if len(b) != 0 {
		return fail(fmt.Errorf("storm: %d trailing bytes after batch frame", len(b)))
	}
	return destEID, bt, nil
}

// --- small frames ---

func appendHelloFrame(buf []byte, worker int) []byte {
	return endFrame(appendUvarint(beginFrame(buf, frameHello), uint64(worker)))
}

func appendEOFFrame(buf []byte, eid int) []byte {
	return endFrame(appendUvarint(beginFrame(buf, frameEOF), uint64(eid)))
}

// appendAckBatchFrame encodes a coalesced batch of XOR-acker checksum
// updates destined for roots owned by the receiving worker: per entry the
// root id (uvarint, global id space), the accumulated XOR term (fixed 8
// bytes) and the fail bit.
func appendAckBatchFrame(buf []byte, ents []ackUpdate) []byte {
	buf = appendUvarint(beginFrame(buf, frameAckBatch), uint64(len(ents)))
	for i := range ents {
		buf = appendUvarint(buf, ents[i].root)
		buf = binary.BigEndian.AppendUint64(buf, ents[i].xor)
		if ents[i].fail {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return endFrame(buf)
}

func appendHeartbeatFrame(buf []byte) []byte {
	return endFrame(beginFrame(buf, frameHeartbeat))
}

// appendEpochBarrierFrame encodes an epoch barrier for one remote
// executor: its dense id, the epoch number, and a retire flag (a retiring
// sender ships its last passed epoch instead of a new barrier). Barriers
// ride the same per-peer FIFO queue as data frames, enqueued from the
// passing executor's own goroutine after its flush, so a barrier on the
// wire proves every earlier envelope from that executor is ahead of it.
func appendEpochBarrierFrame(buf []byte, eid int, epoch uint64, retire bool) []byte {
	buf = appendUvarint(beginFrame(buf, frameEpochBarrier), uint64(eid))
	buf = appendUvarint(buf, epoch)
	var fl uint64
	if retire {
		fl = 1
	}
	return endFrame(appendUvarint(buf, fl))
}

// appendEpochFrame encodes one epoch-protocol message: its kind byte and
// its three words as uvarints.
func appendEpochFrame(buf []byte, m epochMsg) []byte {
	buf = append(beginFrame(buf, frameEpoch), m.kind)
	for _, v := range m.w {
		buf = appendUvarint(buf, v)
	}
	return endFrame(buf)
}

// decodeEpochFrame decodes an epoch frame payload (type byte consumed).
// The kind is checked where the message is applied.
func decodeEpochFrame(b []byte) (epochMsg, error) {
	var m epochMsg
	if len(b) == 0 {
		return m, errShortFrame
	}
	m.kind, b = b[0], b[1:]
	var err error
	for i := range m.w {
		if m.w[i], b, err = decodeUvarint(b); err != nil {
			return m, err
		}
	}
	if len(b) != 0 {
		return m, fmt.Errorf("storm: %d trailing bytes after epoch frame", len(b))
	}
	return m, nil
}
