package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"trafficcep/internal/dfs"
)

// wordCount is the canonical MapReduce example.
func wordCountConfig(fs *dfs.FS, inputs []string) Config {
	return Config{
		Name:       "wordcount",
		FS:         fs,
		InputPaths: inputs,
		OutputPath: "out/wc",
		Mapper: func(_ int64, line string, emit func(k, v string)) error {
			for _, w := range strings.Fields(line) {
				emit(w, "1")
			}
			return nil
		},
		Reducer: func(key string, values []string, emit func(k, v string)) error {
			emit(key, strconv.Itoa(len(values)))
			return nil
		},
		NumReducers: 3,
	}
}

func TestWordCount(t *testing.T) {
	fs := dfs.New(dfs.Options{ChunkSize: 64})
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
		"fox fox fox",
	}
	for _, l := range lines {
		if err := fs.AppendLine("in/doc", l); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(wordCountConfig(fs, []string{"in/doc"}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReadOutput(fs, "out/wc")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, kv := range out {
		counts[kv.Key] = kv.Value
	}
	want := map[string]string{"the": "3", "quick": "2", "fox": "4", "dog": "2", "brown": "1", "lazy": "1"}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%s] = %s, want %s", k, counts[k], v)
		}
	}
	if res.Counters.InputRecords != 4 {
		t.Errorf("input records = %d, want 4", res.Counters.InputRecords)
	}
	if res.Counters.MapOutputs != 13 {
		t.Errorf("map outputs = %d, want 13", res.Counters.MapOutputs)
	}
	if res.Counters.ReduceGroups != 6 {
		t.Errorf("groups = %d, want 6", res.Counters.ReduceGroups)
	}
	if res.Counters.ReduceTasks != 3 || len(res.PartFiles) != 3 {
		t.Errorf("reduce tasks = %d, parts = %d", res.Counters.ReduceTasks, len(res.PartFiles))
	}
}

func TestMultiChunkOneTaskPerChunk(t *testing.T) {
	fs := dfs.New(dfs.Options{ChunkSize: 32})
	for i := 0; i < 50; i++ {
		if err := fs.AppendLine("in/big", fmt.Sprintf("key%d value", i%5)); err != nil {
			t.Fatal(err)
		}
	}
	chunks, err := fs.Chunks("in/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("test needs multiple chunks, got %d", len(chunks))
	}
	res, err := Run(wordCountConfig(fs, []string{"in/big"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapTasks != len(chunks) {
		t.Fatalf("map tasks = %d, want %d (one per chunk)", res.Counters.MapTasks, len(chunks))
	}
	if res.Counters.InputRecords != 50 {
		t.Fatalf("records = %d, want 50", res.Counters.InputRecords)
	}
}

func TestMultipleInputPaths(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	_ = fs.AppendLine("in/a", "x y")
	_ = fs.AppendLine("in/b", "y z")
	res, err := Run(wordCountConfig(fs, []string{"in/a", "in/b"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.InputRecords != 2 || res.Counters.MapOutputs != 4 {
		t.Fatalf("counters = %+v", res.Counters)
	}
}

func TestPartitioningGroupsAllValuesOfAKey(t *testing.T) {
	// Every key must land in exactly one reducer regardless of source
	// chunk: sum per key must be exact.
	fs := dfs.New(dfs.Options{ChunkSize: 48})
	total := map[string]int{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%02d", i%17)
		if err := fs.AppendLine("in/nums", k+" "+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		total[k] += i
	}
	cfg := Config{
		Name:       "sum",
		FS:         fs,
		InputPaths: []string{"in/nums"},
		OutputPath: "out/sum",
		Mapper: func(_ int64, line string, emit func(k, v string)) error {
			parts := strings.Fields(line)
			emit(parts[0], parts[1])
			return nil
		},
		Reducer: func(key string, values []string, emit func(k, v string)) error {
			s := 0
			for _, v := range values {
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				s += n
			}
			emit(key, strconv.Itoa(s))
			return nil
		},
		NumReducers: 4,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	out, err := ReadOutput(fs, "out/sum")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 17 {
		t.Fatalf("output keys = %d, want 17", len(out))
	}
	for _, kv := range out {
		if kv.Value != strconv.Itoa(total[kv.Key]) {
			t.Fatalf("sum[%s] = %s, want %d", kv.Key, kv.Value, total[kv.Key])
		}
	}
}

func TestReducerOutputSortedWithinPartition(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	for _, k := range []string{"c", "a", "b", "a", "c"} {
		_ = fs.AppendLine("in/k", k)
	}
	cfg := Config{
		Name:       "ident",
		FS:         fs,
		InputPaths: []string{"in/k"},
		OutputPath: "out/ident",
		Mapper: func(_ int64, line string, emit func(k, v string)) error {
			emit(line, "1")
			return nil
		},
		Reducer: func(key string, values []string, emit func(k, v string)) error {
			emit(key, strconv.Itoa(len(values)))
			return nil
		},
		NumReducers: 1,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	out, err := ReadOutput(fs, "out/ident")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(out))
	for i, kv := range out {
		keys[i] = kv.Key
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("keys not sorted: %v", keys)
	}
}

func TestConfigValidation(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	_ = fs.AppendLine("in", "x")
	m := func(_ int64, _ string, _ func(k, v string)) error { return nil }
	r := func(_ string, _ []string, _ func(k, v string)) error { return nil }
	cases := []Config{
		{FS: nil, InputPaths: []string{"in"}, OutputPath: "o", Mapper: m, Reducer: r},
		{FS: fs, InputPaths: nil, OutputPath: "o", Mapper: m, Reducer: r},
		{FS: fs, InputPaths: []string{"in"}, OutputPath: "", Mapper: m, Reducer: r},
		{FS: fs, InputPaths: []string{"in"}, OutputPath: "o", Mapper: nil, Reducer: r},
		{FS: fs, InputPaths: []string{"in"}, OutputPath: "o", Mapper: m, Reducer: nil},
		{FS: fs, InputPaths: []string{"missing"}, OutputPath: "o", Mapper: m, Reducer: r},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	_ = fs.AppendLine("in", "boom")
	cfg := Config{
		FS: fs, InputPaths: []string{"in"}, OutputPath: "o",
		Mapper: func(_ int64, _ string, _ func(k, v string)) error {
			return fmt.Errorf("mapper exploded")
		},
		Reducer: func(_ string, _ []string, _ func(k, v string)) error { return nil },
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "mapper exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	_ = fs.AppendLine("in", "x")
	cfg := Config{
		FS: fs, InputPaths: []string{"in"}, OutputPath: "o",
		Mapper: func(_ int64, line string, emit func(k, v string)) error {
			emit(line, "1")
			return nil
		},
		Reducer: func(_ string, _ []string, _ func(k, v string)) error {
			return fmt.Errorf("reducer exploded")
		},
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "reducer exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyPartitionStillWritesPartFile(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	_ = fs.AppendLine("in", "onlykey")
	cfg := wordCountConfig(fs, []string{"in"})
	cfg.OutputPath = "out/empty"
	cfg.NumReducers = 8 // 7 partitions will be empty
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PartFiles) != 8 {
		t.Fatalf("parts = %d", len(res.PartFiles))
	}
	for _, p := range res.PartFiles {
		if !fs.Exists(p) {
			t.Fatalf("missing part file %s", p)
		}
	}
}

func TestBlankLinesSkipped(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	_ = fs.Append("in", []byte("a b\n\n  \nc\n"))
	res, err := Run(wordCountConfig(fs, []string{"in"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.InputRecords != 2 {
		t.Fatalf("records = %d, want 2 (blank lines skipped)", res.Counters.InputRecords)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	fs := dfs.New(dfs.Options{ChunkSize: 40})
	for i := 0; i < 60; i++ {
		_ = fs.AppendLine("in/d", fmt.Sprintf("w%d", i%7))
	}
	run := func(out string) []KeyValue {
		cfg := wordCountConfig(fs, []string{"in/d"})
		cfg.OutputPath = out
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		kvs, err := ReadOutput(fs, out)
		if err != nil {
			t.Fatal(err)
		}
		return kvs
	}
	a, b := run("out/r1"), run("out/r2")
	if len(a) != len(b) {
		t.Fatalf("output sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %v vs %v", i, a[i], b[i])
		}
	}

	// A reducer that depends on value order sees every key's values in
	// input order, even when the first map task finishes last.
	want := map[string][]string{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%d", i%7)
		_ = fs.AppendLine("in/ordered", fmt.Sprintf("%s %d", k, i))
		want[k] = append(want[k], strconv.Itoa(i))
	}
	cfg := Config{
		FS: fs, InputPaths: []string{"in/ordered"}, OutputPath: "out/ordered",
		Mapper: func(_ int64, line string, emit func(k, v string)) error {
			k, v, _ := strings.Cut(line, " ")
			if v == "0" {
				time.Sleep(5 * time.Millisecond)
			}
			emit(k, v)
			return nil
		},
		Reducer: func(key string, values []string, emit func(k, v string)) error {
			emit(key, strings.Join(values, ","))
			return nil
		},
		NumReducers: 2,
		Parallelism: 4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapTasks < 4 {
		t.Fatalf("map tasks = %d, want several chunks", res.Counters.MapTasks)
	}
	out, err := ReadOutput(fs, "out/ordered")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(want) {
		t.Fatalf("keys = %d, want %d", len(out), len(want))
	}
	for _, kv := range out {
		if w := strings.Join(want[kv.Key], ","); kv.Value != w {
			t.Fatalf("values of %s = %s, want input order %s", kv.Key, kv.Value, w)
		}
	}
}
