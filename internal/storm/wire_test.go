package storm

import (
	"encoding/binary"
	"fmt"
	"math"
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
	dec := &frameDecoder{r: rt}
	if _, _, err := dec.decodeValue([]byte{0xFE}); err == nil {
		t.Error("unknown value tag: decode succeeded")
	}
	if _, _, err := dec.decodeValue(nil); err == nil {
		t.Error("empty value: decode succeeded")
	}
}

// TestWireEpochFrameRoundTrip pins the epoch-message codec: every kind
// with full-width words round-trips, and truncated or overlong payloads are
// rejected.
func TestWireEpochFrameRoundTrip(t *testing.T) {
	for _, m := range []epochMsg{
		{kind: epochBegin, w: [3]uint64{7}},
		{kind: epochPass, w: [3]uint64{3, 1 << 40, 12}},
		{kind: epochKick},
		{kind: epochCommit, w: [3]uint64{math.MaxUint64}},
		{kind: epochRewind, w: [3]uint64{2, 5}},
	} {
		frame := appendEpochFrame(nil, m)
		if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-frameHeaderLen || frame[frameHeaderLen] != frameEpoch {
			t.Fatalf("%+v: header = %d/%d", m, got, frame[frameHeaderLen])
		}
		body := frame[frameHeaderLen+1:]
		got, err := decodeEpochFrame(body)
		if err != nil || got != m {
			t.Fatalf("decoded %+v, %v; want %+v", got, err, m)
		}
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeEpochFrame(body[:cut]); err == nil {
				t.Errorf("%+v truncated at %d/%d bytes: decode succeeded", m, cut, len(body))
			}
		}
		if _, err := decodeEpochFrame(append(append([]byte(nil), body...), 0)); err == nil {
			t.Errorf("%+v with a trailing byte: decode succeeded", m)
		}
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
// reserved between eof and heartbeat, and 8 between heartbeat and ackBatch,
// and a well-formed frame of each is rejected like any unknown frame
// instead of being dispatched — type 4 in the layout the retired ackResult
// frame had (uvarint id + fail byte), 5 and 6 in the layout of the retired
// drain fence and its ack (uvarint epoch + component name), 8 in the layout
// of the retired control request (kind, uvarint id, method, payload).
func TestWireRejectsReservedFrameType(t *testing.T) {
	if frameEOF != 3 || frameHeartbeat != 7 || frameAckBatch != 9 || frameEpochBarrier != 10 || frameEpoch != 11 {
		t.Fatalf("frame numbers shifted: eof = %d, heartbeat = %d, ackBatch = %d, epochBarrier = %d, epoch = %d; want 3, 7, 9, 10 and 11",
			frameEOF, frameHeartbeat, frameAckBatch, frameEpochBarrier, frameEpoch)
	}
	fence := appendWireString(appendUvarint(nil, 9), "EsperBolt")
	control := append(appendWireString([]byte{0, 1}, "storm.epoch.begin"), 0, 0, 0, 0, 0, 0, 0, 1)
	for typ, body := range map[byte][]byte{4: append(appendUvarint(nil, 77), 1), 5: fence, 6: fence, 8: control} {
		err := (&peerLinks{}).dispatch(0, typ, body, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown frame type %d", typ)) {
			t.Fatalf("dispatch(type %d) = %v, want unknown frame type error", typ, err)
		}
	}
}

// FuzzWireFrame throws arbitrary payloads at the batch and epoch
// decoders: they must never panic, every successfully decoded batch must
// re-encode, a second decode of the same payload through the same decoder
// — now served from its intern table — must give the same result, and a
// decoded epoch message must re-encode to the canonical form of its words.
// Seeds cover a valid frame, a zero-envelope batch, a truncated frame, an
// oversized envelope count, an epoch frame and a Figure 8 row.
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
	f.Add(appendEpochFrame(nil, epochMsg{kind: epochPass, w: [3]uint64{1, 2, 3}})[frameHeaderLen+1:])
	row, err := appendBatchFrame(nil, 1, []envelope{{tuple: Tuple{Stream: "default", Values: figure8Row(3)}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(row[frameHeaderLen+1:])

	rt := wireTestRuntime(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		dec := &frameDecoder{r: rt}
		dest, bt, err := dec.decodeBatchFrame(payload)
		dest2, bt2, err2 := dec.decodeBatchFrame(payload)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("first decode: %v, repeat decode: %v", err, err2)
		}
		if err == nil {
			if dest != dest2 || len(bt.envs) != len(bt2.envs) {
				t.Fatalf("repeat decode: dest %d with %d envelopes, first %d with %d", dest2, len(bt2.envs), dest, len(bt.envs))
			}
			for i := range bt.envs {
				a, b := &bt.envs[i], &bt2.envs[i]
				// %#v prints maps sorted and NaN as NaN, so it compares what
				// reflect.DeepEqual would except that NaN equals itself.
				if a.local != b.local || a.tuple.ack != b.tuple.ack || a.tuple.edge != b.tuple.edge ||
					a.tuple.Stream != b.tuple.Stream || a.tuple.Trace != b.tuple.Trace ||
					fmt.Sprintf("%#v", a.tuple.Values) != fmt.Sprintf("%#v", b.tuple.Values) {
					t.Fatalf("envelope %d: repeat decode %+v, first %+v", i, b, a)
				}
			}
			if _, err := appendBatchFrame(nil, 0, bt.envs); err != nil {
				t.Fatalf("decoded batch does not re-encode: %v", err)
			}
			rt.putBatch(bt)
			rt.putBatch(bt2)
		}
		if m, err := decodeEpochFrame(payload); err == nil {
			again, err := decodeEpochFrame(appendEpochFrame(nil, m)[frameHeaderLen+1:])
			if err != nil || again != m {
				t.Fatalf("epoch message %+v re-decodes as %+v, %v", m, again, err)
			}
		}
	})
}

// figure8Row is the row the Figure 8 BusStopsTracker emits for trace i,
// as the core bolts build it: the BusReader's 11 fields, PreProcess's three,
// one layer<k>Area per quadtree layer of a depth-8 tree plus leafArea and
// the 9-element areaPath, and stopId — 26 fields of strings, floats and a
// bool.
func figure8Row(i int) map[string]any {
	path := make([]string, 9)
	row := map[string]any{
		"ts": float64(1700000000 + i), "hour": float64(7 + i%12), "day": "weekday",
		"lineId": fmt.Sprintf("L%02d", i%67), "direction": i%2 == 0,
		"lat": 53.3 + float64(i%100)/1000, "lon": -6.2 - float64(i%100)/1000,
		"delay": float64(30 + i%300), "congestion": float64(i % 2),
		"busStop": fmt.Sprintf("%d", 1000+i%400), "vehicleId": fmt.Sprintf("%d", 33000+i%911),
		"speed": 18.5 + float64(i%40), "actualDelay": float64(i%60) - 20.5, "heading": float64(i % 360),
		"stopId": fmt.Sprintf("stop%04d", i%400), "areaPath": path,
	}
	for k := range path {
		path[k] = fmt.Sprintf("a%d.%d", k, (i>>uint(k))%4)
		row[fmt.Sprintf("layer%dArea", k)] = path[k]
	}
	row["leafArea"] = path[len(path)-1]
	return row
}

// TestWireDecodeAllocsPerEnvelope pins the decode's allocation floor: a
// repeat decode through one frameDecoder allocates nothing for keys, stream
// names, string values or []string elements, which its intern table serves
// from the earlier frames.
//   - Small ints, bools and nil box without allocating, so a row of them
//     costs exactly its Values map: 2 allocations for up to 8 keys. A
//     per-key string allocation would show as 6 more per envelope.
//   - A Figure 8 row costs its map, one box per non-zero float and the
//     areaPath slice, which is two allocations: its backing array and the
//     slice header boxed in the interface. A per-string allocation would
//     show as 24 more.
//
// Skipped under -race, where sync.Pool drops batches at random.
func TestWireDecodeAllocsPerEnvelope(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const envelopes = 64
	rt := wireTestRuntime(t)
	perEnvelope := func(t *testing.T, row func(i int) map[string]any) float64 {
		envs := make([]envelope, envelopes)
		for i := range envs {
			envs[i] = envelope{tuple: Tuple{Stream: "default", Values: row(i)}}
		}
		frame, err := appendBatchFrame(nil, 7, envs)
		if err != nil {
			t.Fatal(err)
		}
		dec := &frameDecoder{r: rt}
		return testing.AllocsPerRun(100, func() {
			_, bt, err := dec.decodeBatchFrame(frame[frameHeaderLen+1:])
			if err != nil {
				t.Fatal(err)
			}
			rt.putBatch(bt)
		}) / envelopes
	}

	t.Run("small", func(t *testing.T) {
		got := perEnvelope(t, func(i int) map[string]any {
			return map[string]any{
				"vehicle": i % 16, "line": i % 4, "stop": i, "hour": 7,
				"weekday": true, "congestion": i%2 == 0,
			}
		})
		if got > 2 {
			t.Fatalf("decode costs %.2f allocations per envelope, want 2: one map, no key strings", got)
		}
	})

	t.Run("figure8", func(t *testing.T) {
		row := figure8Row(0)
		// The map the decoder makes for this many fields, filled.
		var sink map[string]any
		mapAllocs := testing.AllocsPerRun(100, func() {
			sink = make(map[string]any, len(row))
			for k := range row {
				sink[k] = nil
			}
		})
		// Every row has the same float fields; count the non-zero ones
		// over all 64 rows, as each of those boxes on decode.
		var floats float64
		for i := 0; i < envelopes; i++ {
			for _, v := range figure8Row(i) {
				if f, ok := v.(float64); ok && f != 0 {
					floats++
				}
			}
		}
		budget := mapAllocs + floats/envelopes + 2 // + the areaPath slice and its box
		if got := perEnvelope(t, figure8Row); got > budget {
			t.Fatalf("decode costs %.2f allocations per Figure 8 row, want ≤ %.2f: the map (%.0f), %.2f non-zero floats and the areaPath slice (2), no strings",
				got, budget, mapAllocs, floats/envelopes)
		}
		_ = sink
	})
}

// TestWireInternTableBounded decodes three times as many distinct strings
// as the intern table holds — keys, string values and []string elements —
// through one decoder: the table never exceeds its bound, and every value
// still decodes to what was sent.
func TestWireInternTableBounded(t *testing.T) {
	rt := wireTestRuntime(t)
	dec := &frameDecoder{r: rt}
	const perFrame = 64
	next := 0
	for next < 3*maxInterned {
		envs := make([]envelope, perFrame)
		for i := range envs {
			n := next
			next += 3
			envs[i] = envelope{tuple: Tuple{Stream: "default", Values: map[string]any{
				fmt.Sprintf("k%d", n): fmt.Sprintf("v%d", n),
				"tags":                []string{fmt.Sprintf("t%d", n)},
			}}}
		}
		frame, err := appendBatchFrame(nil, 0, envs)
		if err != nil {
			t.Fatal(err)
		}
		_, bt, err := dec.decodeBatchFrame(frame[frameHeaderLen+1:])
		if err != nil {
			t.Fatal(err)
		}
		if len(dec.tab) > maxInterned {
			t.Fatalf("intern table holds %d entries after %d strings, bound %d", len(dec.tab), next, maxInterned)
		}
		for i := range envs {
			if !reflect.DeepEqual(bt.envs[i].tuple.Values, envs[i].tuple.Values) {
				t.Fatalf("decoded %v, sent %v", bt.envs[i].tuple.Values, envs[i].tuple.Values)
			}
		}
		rt.putBatch(bt)
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

// BenchmarkWireFigure8Row is BenchmarkWireBatchRoundTrip over 64 real-shaped
// rows: the 26 fields the Figure 8 BusStopsTracker emits (figure8Row), the
// rows that cross between workers on the Splitter → EsperBolt edge.
func BenchmarkWireFigure8Row(b *testing.B) {
	rt := wireTestRuntime(b)
	envs := make([]envelope, 64)
	for i := range envs {
		envs[i] = envelope{tuple: Tuple{Stream: "routed", Values: figure8Row(i)}}
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
