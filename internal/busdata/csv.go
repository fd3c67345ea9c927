package busdata

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV streams traces to w in the canonical CSV layout (no header —
// matching the raw SIRI dumps the BusReader spout consumes, §4.3.2).
func WriteCSV(w io.Writer, traces []Trace) error {
	cw := csv.NewWriter(w)
	for i := range traces {
		if err := cw.Write(traces[i].MarshalCSV()); err != nil {
			return fmt.Errorf("busdata: writing record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses every record from r.
func ReadCSV(r io.Reader) ([]Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 9
	var out []Trace
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("busdata: reading CSV: %w", err)
		}
		var tr Trace
		if err := tr.UnmarshalCSV(rec); err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
}
