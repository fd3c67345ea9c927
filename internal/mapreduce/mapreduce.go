// Package mapreduce is a from-scratch MapReduce engine over the dfs package,
// standing in for Hadoop (§2.1.3): a job runs one map task per input chunk
// in parallel, partitions intermediate pairs by key hash into R reduce
// tasks, sorts and groups each partition, runs the reducers in parallel, and
// writes part files back to the file system.
//
//	map(k1, v1)      → [k2, v2]
//	reduce(k2, [v2]) → [k3, v3]
package mapreduce

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"trafficcep/internal/dfs"
	"trafficcep/internal/telemetry"
)

// KeyValue is one intermediate or output pair.
type KeyValue struct {
	Key   string
	Value string
}

// Mapper consumes one input record (a line, with its byte offset as k1) and
// emits intermediate pairs.
type Mapper func(offset int64, line string, emit func(key, value string)) error

// Reducer consumes one key with all its values and emits output pairs.
type Reducer func(key string, values []string, emit func(key, value string)) error

// Config specifies a job.
type Config struct {
	Name        string
	FS          *dfs.FS
	InputPaths  []string // each chunk of each path becomes one map task
	OutputPath  string   // part files are written as OutputPath/part-r-NNNNN
	Mapper      Mapper
	Reducer     Reducer
	NumReducers int // defaults to 1
	// Parallelism bounds concurrently running tasks; defaults to
	// GOMAXPROCS.
	Parallelism int
	// Telemetry, when non-nil, receives the job's phase timings as
	// mapreduce.<phase>_ns histograms plus cumulative record counters, so
	// batch runs share the registry with the streaming layer.
	Telemetry *telemetry.Registry
}

// Counters summarize a finished job.
type Counters struct {
	MapTasks     int
	ReduceTasks  int
	InputRecords int64
	MapOutputs   int64
	ReduceGroups int64
	Outputs      int64
	// Phase wall-clock durations of this run.
	MapDuration    time.Duration
	ReduceDuration time.Duration
}

// Result is a finished job's output handle.
type Result struct {
	Counters  Counters
	PartFiles []string
}

// Run executes a job synchronously.
func Run(cfg Config) (*Result, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("mapreduce: no file system")
	}
	if cfg.Mapper == nil || cfg.Reducer == nil {
		return nil, fmt.Errorf("mapreduce: mapper and reducer are required")
	}
	if len(cfg.InputPaths) == 0 {
		return nil, fmt.Errorf("mapreduce: no input paths")
	}
	if cfg.OutputPath == "" {
		return nil, fmt.Errorf("mapreduce: no output path")
	}
	if cfg.NumReducers <= 0 {
		cfg.NumReducers = 1
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}

	// Plan map tasks: one per chunk.
	type mapTask struct {
		path  string
		chunk int
	}
	var tasks []mapTask
	for _, p := range cfg.InputPaths {
		chunks, err := cfg.FS.Chunks(p)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: %w", err)
		}
		for _, c := range chunks {
			tasks = append(tasks, mapTask{path: p, chunk: c.Index})
		}
	}

	res := &Result{Counters: Counters{MapTasks: len(tasks), ReduceTasks: cfg.NumReducers}}

	// Map phase. Each task produces per-reducer partitions into its own
	// slot; the slots are merged in task order once every task is done, so a
	// reducer sees a key's values in input order whatever order the tasks
	// finished in.
	perTask := make([][][]KeyValue, len(tasks))
	var (
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, cfg.Parallelism)
	mapStart := time.Now()
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t mapTask) {
			defer func() { <-sem; wg.Done() }()
			local := make([][]KeyValue, cfg.NumReducers)
			var records, outputs int64
			err := runMapTask(cfg, t.path, t.chunk, func(k, v string) {
				outputs++
				r := partitionOf(k, cfg.NumReducers)
				local[r] = append(local[r], KeyValue{Key: k, Value: v})
			}, &records)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("mapreduce: map task %s#%d: %w", t.path, t.chunk, err)
				}
				return
			}
			res.Counters.InputRecords += records
			res.Counters.MapOutputs += outputs
			perTask[i] = local
		}(i, t)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	partitions := make([][]KeyValue, cfg.NumReducers)
	for _, local := range perTask {
		for r := range local {
			partitions[r] = append(partitions[r], local[r]...)
		}
	}
	res.Counters.MapDuration = time.Since(mapStart)

	// Reduce phase: sort each partition by key, group, reduce, write the
	// part file. Reducers run in parallel.
	reduceStart := time.Now()
	parts := make([]string, cfg.NumReducers)
	var rwg sync.WaitGroup
	for r := 0; r < cfg.NumReducers; r++ {
		rwg.Add(1)
		sem <- struct{}{}
		go func(r int) {
			defer func() { <-sem; rwg.Done() }()
			groups, outs, err := runReduceTask(cfg, partitions[r])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("mapreduce: reduce task %d: %w", r, err)
				}
				return
			}
			part := fmt.Sprintf("%s/part-r-%05d", cfg.OutputPath, r)
			var buf bytes.Buffer
			for _, kv := range outs {
				fmt.Fprintf(&buf, "%s\t%s\n", kv.Key, kv.Value)
			}
			if buf.Len() > 0 {
				if err := cfg.FS.Write(part, buf.Bytes()); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			} else if err := cfg.FS.Write(part, []byte("\n")); err != nil {
				// Empty partitions still produce a (blank) part file,
				// as Hadoop does.
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			parts[r] = part
			res.Counters.ReduceGroups += groups
			res.Counters.Outputs += int64(len(outs))
		}(r)
	}
	rwg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.Counters.ReduceDuration = time.Since(reduceStart)
	res.PartFiles = parts

	if reg := cfg.Telemetry; reg != nil {
		reg.Counter("mapreduce.jobs").Inc()
		reg.Counter("mapreduce.input_records").Add(uint64(res.Counters.InputRecords))
		reg.Counter("mapreduce.map_outputs").Add(uint64(res.Counters.MapOutputs))
		reg.Counter("mapreduce.outputs").Add(uint64(res.Counters.Outputs))
		reg.Histogram("mapreduce.map_phase_ns").ObserveDuration(res.Counters.MapDuration)
		reg.Histogram("mapreduce.reduce_phase_ns").ObserveDuration(res.Counters.ReduceDuration)
		reg.Histogram("mapreduce.job_ns").ObserveDuration(res.Counters.MapDuration + res.Counters.ReduceDuration)
	}
	return res, nil
}

// runMapTask feeds every line of one chunk to the mapper.
func runMapTask(cfg Config, path string, chunkIdx int, emit func(k, v string), records *int64) error {
	data, err := cfg.FS.ReadChunk(path, chunkIdx)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	var offset int64
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			offset += int64(len(line)) + 1
			continue
		}
		*records++
		if err := cfg.Mapper(offset, line, emit); err != nil {
			return err
		}
		offset += int64(len(line)) + 1
	}
	return sc.Err()
}

// runReduceTask groups one partition by key (sorted) and runs the reducer.
func runReduceTask(cfg Config, pairs []KeyValue) (groups int64, outs []KeyValue, err error) {
	slices.SortStableFunc(pairs, func(a, b KeyValue) int { return strings.Compare(a.Key, b.Key) })
	emit := func(k, v string) { outs = append(outs, KeyValue{Key: k, Value: v}) }
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].Key == pairs[i].Key {
			j++
		}
		values := make([]string, 0, j-i)
		for k := i; k < j; k++ {
			values = append(values, pairs[k].Value)
		}
		groups++
		if err := cfg.Reducer(pairs[i].Key, values, emit); err != nil {
			return groups, nil, err
		}
		i = j
	}
	return groups, outs, nil
}

// partitionOf hashes a key to a reducer index, like Hadoop's default
// HashPartitioner.
func partitionOf(key string, numReducers int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(numReducers))
}

// ReadOutput reads all part files of a finished job back as pairs, in part
// order then line order.
func ReadOutput(fs *dfs.FS, outputPath string) ([]KeyValue, error) {
	var out []KeyValue
	for _, part := range fs.List(outputPath + "/part-r-") {
		data, err := fs.Read(part)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			k, v, found := strings.Cut(line, "\t")
			if !found {
				return nil, fmt.Errorf("mapreduce: malformed output line %q in %s", line, part)
			}
			out = append(out, KeyValue{Key: k, Value: v})
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
