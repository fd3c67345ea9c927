package cep

// The four-rules benchmark registers its thresholds as tables in this tree
// (see registerThresholds in bench_test.go).
func init() {
	registerThresholds = func(eng *Engine, name string, rows []map[string]Value) error {
		t, err := NewTable([]string{"location", "hour", "day", "value"}, 3, rows)
		if err != nil {
			return err
		}
		return eng.RegisterTable(name, t)
	}
}
