package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one timed interval of the traced pass. Spans are kept in memory
// and written out when the benchmark ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Run    string `json:"run"`    // shared by the spans of one pass
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"` // layer calls made inside the span
}

type tracer struct {
	run   string
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: nanos()})
	return len(t.spans)
}

func (t *tracer) end(id, calls int) {
	s := &t.spans[id-1]
	s.End, s.Calls = nanos(), calls
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its child spans cover. Children of one parent do not overlap here (the
// pass is one goroutine), so covered time is the sum of the children clipped
// to the parent.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[p.ID] -= hi - lo
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerStep is one step of the layered pass over a chunk of traces; run
// returns how many layer calls it made. Steps without a name are glue and
// fall into their chunk span's self time.
type layerStep struct {
	name string
	run  func(lo, hi int) (calls int, err error)
}

const chunkTraces = 1024

// layerCost is what the pass measured for one layer.
type layerCost struct {
	calls int
	nanos int64
}

func (c layerCost) perCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.nanos) / float64(c.calls)
}

// passResult is what the traced pass measured: the time inside each layer,
// the wall time of the whole pass, and the glue — the chunk spans' self time.
type passResult struct {
	costs      map[string]layerCost
	wall, glue int64
}

// tracedPass walks traces [0,n) through steps in chunks, one span around each
// (layer, chunk) so that two clock reads are spread over a thousand calls.
func tracedPass(t *tracer, steps []layerStep, n int) (*passResult, error) {
	res := &passResult{costs: map[string]layerCost{}}
	root := t.begin("layers", 0)
	for lo := 0; lo < n; lo += chunkTraces {
		hi := min(lo+chunkTraces, n)
		chunk := t.begin("chunk", root)
		for _, st := range steps {
			if st.name == "" {
				if _, err := st.run(lo, hi); err != nil {
					return nil, err
				}
				continue
			}
			id := t.begin(st.name, chunk)
			calls, err := st.run(lo, hi)
			t.end(id, calls)
			if err != nil {
				return nil, err
			}
		}
		t.end(chunk, 0)
	}
	t.end(root, 0)
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		switch s.Name {
		case "layers":
			res.wall = s.End - s.Start
		case "chunk":
			res.glue += self[s.ID]
		default:
			c := res.costs[s.Name]
			c.calls += s.Calls
			c.nanos += s.End - s.Start
			res.costs[s.Name] = c
		}
	}
	return res, nil
}

// spanOverheadNanos times empty spans: what one begin/end pair adds.
func spanOverheadNanos() float64 {
	const k = 20000
	t := &tracer{run: "calibration", spans: make([]span, 0, k)}
	start := nanos()
	for i := 0; i < k; i++ {
		t.end(t.begin("empty", 0), 0)
	}
	return float64(nanos()-start) / k
}
