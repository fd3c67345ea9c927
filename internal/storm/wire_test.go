package storm

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"trafficcep/internal/telemetry"
)

// wireTestRuntime builds a minimal runtime so decodeBatchFrame has a batch
// pool to draw from.
func wireTestRuntime(t testing.TB) *Runtime {
	t.Helper()
	b := NewTopologyBuilder("wire")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 1, keys: 1} }, 1, 1)
	b.SetBolt("sink", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestWireBatchRoundTrip encodes a batch covering every value tag — and a
// traced envelope — and asserts the decode reproduces the envelopes with
// the exact Go types intact (fields-grouping hashes and bolt type switches
// must behave identically on both sides of the wire).
func TestWireBatchRoundTrip(t *testing.T) {
	rt := wireTestRuntime(t)
	envs := []envelope{
		{local: 0, tuple: Tuple{Stream: "default", Values: map[string]any{
			"nil":     nil,
			"true":    true,
			"false":   false,
			"int":     -42,
			"int64":   int64(1) << 60,
			"uint64":  uint64(18446744073709551615),
			"float64": 3.14159,
			"float32": float32(2.5),
			"string":  "vehicle-17",
			"bytes":   []byte{0, 1, 2, 0xff},
			"time":    time.Unix(0, 1700000000123456789),
			"strings": []string{"a", "", "c"},
			"slice":   []any{1, "two", 3.0, nil},
			"map":     map[string]any{"k": "v", "n": 7},
		}}},
		{local: 2, tuple: Tuple{Stream: "speed", ack: 99, Values: map[string]any{"i": 5}}},
		{local: 1, tuple: Tuple{
			Stream: "default",
			Trace:  telemetry.TupleTrace{StartNanos: 123, EmitNanos: 456, Hops: 3},
			Values: map[string]any{"key": "L07"},
		}},
		{local: 0, tuple: Tuple{Stream: "empty"}}, // nil Values
	}
	frame, err := appendBatchFrame(nil, 7, envs)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-frameHeaderLen {
		t.Fatalf("length prefix = %d, want %d", got, len(frame)-frameHeaderLen)
	}
	if frame[frameHeaderLen] != frameBatch {
		t.Fatalf("frame type = %d, want %d", frame[frameHeaderLen], frameBatch)
	}
	destEID, bt, err := rt.decodeBatchFrame(frame[frameHeaderLen+1:])
	if err != nil {
		t.Fatal(err)
	}
	if destEID != 7 {
		t.Fatalf("destEID = %d, want 7", destEID)
	}
	if len(bt.envs) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(bt.envs), len(envs))
	}
	for i := range envs {
		want, got := envs[i], bt.envs[i]
		if got.local != want.local || got.tuple.Stream != want.tuple.Stream ||
			got.tuple.ack != want.tuple.ack || got.tuple.Trace != want.tuple.Trace {
			t.Errorf("envelope %d header: got %+v, want %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.tuple.Values, want.tuple.Values) {
			t.Errorf("envelope %d values: got %#v, want %#v", i, got.tuple.Values, want.tuple.Values)
		}
		for k, v := range want.tuple.Values {
			if reflect.TypeOf(got.tuple.Values[k]) != reflect.TypeOf(v) {
				t.Errorf("envelope %d key %q: type %T, want %T", i, k, got.tuple.Values[k], v)
			}
		}
	}
	rt.putBatch(bt)
}

// TestWireDecodeCopiesOutOfBuffer scribbles over the receive buffer after a
// decode and asserts the decoded payload is untouched. The acker
// caches replay roots and executors may process envelopes long after
// arrival, so decoded values must never alias wire memory (the transport
// reuses its read buffer for the next frame).
func TestWireDecodeCopiesOutOfBuffer(t *testing.T) {
	rt := wireTestRuntime(t)
	envs := []envelope{{local: 0, tuple: Tuple{Stream: "default", Values: map[string]any{
		"route": "L07-outbound",
		"raw":   []byte("payload-bytes"),
		"tags":  []string{"bus", "stop"},
	}}}}
	frame, err := appendBatchFrame(nil, 0, envs)
	if err != nil {
		t.Fatal(err)
	}
	_, bt, err := rt.decodeBatchFrame(frame[frameHeaderLen+1:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xAA
	}
	vals := bt.envs[0].tuple.Values
	if vals["route"] != "L07-outbound" {
		t.Errorf("route = %q after buffer reuse", vals["route"])
	}
	if string(vals["raw"].([]byte)) != "payload-bytes" {
		t.Errorf("raw = %q after buffer reuse", vals["raw"])
	}
	if got := vals["tags"].([]string); got[0] != "bus" || got[1] != "stop" {
		t.Errorf("tags = %v after buffer reuse", got)
	}
	if bt.envs[0].tuple.Stream != "default" {
		t.Errorf("stream = %q after buffer reuse", bt.envs[0].tuple.Stream)
	}
	rt.putBatch(bt)
}

// TestWireDecodeRejectsMalformedFrames: truncations at every interesting
// offset, trailing garbage, lying envelope counts and unknown value tags
// must all fail cleanly (error, no panic, no pooled batch leak).
func TestWireDecodeRejectsMalformedFrames(t *testing.T) {
	rt := wireTestRuntime(t)
	envs := []envelope{{local: 1, tuple: Tuple{Stream: "default", Values: map[string]any{"i": 1, "key": "k"}}}}
	frame, err := appendBatchFrame(nil, 3, envs)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[frameHeaderLen+1:]

	for cut := 0; cut < len(payload); cut++ {
		if _, bt, err := rt.decodeBatchFrame(payload[:cut]); err == nil {
			// A truncation that still parses must at least not fabricate
			// envelopes beyond the declared count.
			rt.putBatch(bt)
			t.Errorf("truncated at %d/%d bytes: decode succeeded", cut, len(payload))
		}
	}
	if _, _, err := rt.decodeBatchFrame(append(append([]byte(nil), payload...), 0x00)); err == nil {
		t.Error("trailing byte: decode succeeded")
	}
	// Envelope count far beyond the remaining bytes must be rejected before
	// any allocation sized from it.
	lying := appendUvarint(appendUvarint(nil, 3), 1<<40)
	if _, _, err := rt.decodeBatchFrame(lying); err == nil {
		t.Error("oversized envelope count: decode succeeded")
	}
	if _, _, err := decodeValue([]byte{0xFE}); err == nil {
		t.Error("unknown value tag: decode succeeded")
	}
	if _, _, err := decodeValue(nil); err == nil {
		t.Error("empty value: decode succeeded")
	}
}

// TestWireControlFrameRoundTrip pins the control-plane codec, including the
// payload copy-out (responses outlive the read buffer: a waiting Control
// caller consumes them on another goroutine).
func TestWireControlFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"moves":[{"field":"key"}]}`)
	frame := appendControlFrame(nil, controlRequest, 42, "core.prepare", payload)
	cf, err := decodeControlFrame(frame[frameHeaderLen+1:])
	if err != nil {
		t.Fatal(err)
	}
	if cf.kind != controlRequest || cf.id != 42 || cf.method != "core.prepare" || string(cf.payload) != string(payload) {
		t.Fatalf("decoded %+v", cf)
	}
	for i := range frame {
		frame[i] = 0
	}
	if string(cf.payload) != `{"moves":[{"field":"key"}]}` {
		t.Fatal("control payload aliases the read buffer")
	}
	if _, err := decodeControlFrame(nil); err == nil {
		t.Error("empty control frame: decode succeeded")
	}
}

// TestWireSmallFrames pins the fixed frames' layout: hello, eof and
// heartbeat.
func TestWireSmallFrames(t *testing.T) {
	check := func(frame []byte, typ byte) []byte {
		t.Helper()
		if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-frameHeaderLen {
			t.Fatalf("length prefix = %d, want %d", got, len(frame)-frameHeaderLen)
		}
		if frame[frameHeaderLen] != typ {
			t.Fatalf("type = %d, want %d", frame[frameHeaderLen], typ)
		}
		return frame[frameHeaderLen+1:]
	}
	b := check(appendHelloFrame(nil, 3), frameHello)
	if w, _, _ := decodeUvarint(b); w != 3 {
		t.Errorf("hello worker = %d", w)
	}
	b = check(appendEOFFrame(nil, 11), frameEOF)
	if eid, _, _ := decodeUvarint(b); eid != 11 {
		t.Errorf("eof eid = %d", eid)
	}
	check(appendHeartbeatFrame(nil), frameHeartbeat)
}

// TestWireRejectsReservedFrameType pins the frame numbering: types 4–6 stay
// reserved between eof and heartbeat, and a well-formed frame of each is
// rejected like any unknown frame instead of being dispatched — type 4 in
// the layout the retired ackResult frame had (uvarint id + fail byte), 5
// and 6 in the layout of the retired drain fence and its ack (uvarint
// epoch + component name).
func TestWireRejectsReservedFrameType(t *testing.T) {
	if frameEOF != 3 || frameHeartbeat != 7 {
		t.Fatalf("frame numbers shifted: eof = %d, heartbeat = %d; want 3 and 7", frameEOF, frameHeartbeat)
	}
	fence := appendWireString(appendUvarint(nil, 9), "EsperBolt")
	for typ, body := range map[byte][]byte{4: append(appendUvarint(nil, 77), 1), 5: fence, 6: fence} {
		err := (&peerLinks{}).dispatch(0, typ, body, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown frame type %d", typ)) {
			t.Fatalf("dispatch(type %d) = %v, want unknown frame type error", typ, err)
		}
	}
}

// FuzzWireFrame throws arbitrary payloads at the batch and control
// decoders: they must never panic and every successfully decoded batch
// must re-encode. Seeds cover a valid frame, a zero-envelope batch, a
// truncated frame, an oversized envelope count and a control frame.
func FuzzWireFrame(f *testing.F) {
	valid, err := appendBatchFrame(nil, 2, []envelope{
		{local: 0, tuple: Tuple{Stream: "default", Values: map[string]any{"i": 7, "key": "k3"}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid[frameHeaderLen+1:])
	empty, err := appendBatchFrame(nil, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty[frameHeaderLen+1:])                    // zero-envelope batch
	f.Add(valid[frameHeaderLen+1 : len(valid)-3])      // truncated frame
	f.Add(appendUvarint(appendUvarint(nil, 1), 1<<40)) // oversized envelope count
	f.Add(appendControlFrame(nil, controlRequest, 1, "m", []byte("p"))[frameHeaderLen+1:])

	rt := wireTestRuntime(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		if _, bt, err := rt.decodeBatchFrame(payload); err == nil {
			if _, err := appendBatchFrame(nil, 0, bt.envs); err != nil {
				t.Fatalf("decoded batch does not re-encode: %v", err)
			}
			rt.putBatch(bt)
		}
		decodeControlFrame(payload)
	})
}

// TestWireDecodeAllocsPerEnvelope pins the decode's allocation floor: each
// envelope costs exactly its Values map — 2 allocations for a map of up to
// 8 keys — and nothing per key or stream name, which the decoder's intern
// table serves from the previous frames. Values are small ints, bools and
// nil, which box without allocating, so a per-key string allocation (the
// intern table broken) would show as 6 more per envelope. Skipped under
// -race, where sync.Pool drops batches at random.
func TestWireDecodeAllocsPerEnvelope(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const envelopes = 64
	rt := wireTestRuntime(t)
	envs := make([]envelope, envelopes)
	for i := range envs {
		envs[i] = envelope{tuple: Tuple{Stream: "default", Values: map[string]any{
			"vehicle": i % 16, "line": i % 4, "stop": i, "hour": 7,
			"weekday": true, "congestion": i%2 == 0,
		}}}
	}
	frame, err := appendBatchFrame(nil, 7, envs)
	if err != nil {
		t.Fatal(err)
	}
	dec := &frameDecoder{r: rt}
	got := testing.AllocsPerRun(100, func() {
		_, bt, err := dec.decodeBatchFrame(frame[frameHeaderLen+1:])
		if err != nil {
			t.Fatal(err)
		}
		rt.putBatch(bt)
	})
	if perEnv := got / envelopes; perEnv > 2 {
		t.Fatalf("decode costs %.2f allocations per envelope (%.0f per frame), want 2: one map, no key strings", perEnv, got)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// BenchmarkWireBatchRoundTrip tracks the steady-state codec cost of one
// batch-frame round trip at the transport's default batch size: encode 64
// small envelopes into a frame, decode them back through a persistent
// frameDecoder (the readLoop's configuration, so the intern table
// amortizes exactly as in production), then release the decoded batch
// under the receiver-releases contract. allocs/op is the regression
// signal: the floor is one Values map (2 allocations) per envelope, with
// keys, stream names and small-int values costing nothing
// (TestWireDecodeAllocsPerEnvelope enforces it).
func BenchmarkWireBatchRoundTrip(b *testing.B) {
	rt := wireTestRuntime(b)
	envs := make([]envelope, 64)
	for i := range envs {
		envs[i] = envelope{tuple: Tuple{
			Stream: "default",
			Values: map[string]any{"k": i % 8, "v": i},
		}}
	}
	dec := &frameDecoder{r: rt}
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		frame, err = appendBatchFrame(frame[:0], 7, envs)
		if err != nil {
			b.Fatal(err)
		}
		_, bt, err := dec.decodeBatchFrame(frame[frameHeaderLen+1:])
		if err != nil {
			b.Fatal(err)
		}
		rt.putBatch(bt)
	}
}
