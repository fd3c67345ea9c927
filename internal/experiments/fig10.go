package experiments

import (
	"fmt"
	"math"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/sqlstore"
)

// Strategy is one of the four ways Figure 10 compares of getting a rule's
// dynamic thresholds into the engine (§4.3.1). The product runs only
// StrategyStream (core.InstallRule); the other three are the figure's
// baselines and exist only here.
type Strategy int

// Threshold retrieval strategies.
const (
	// StrategyStatic uses a fixed literal threshold: the "Optimal"
	// baseline with no retrieval overhead.
	StrategyStatic Strategy = iota
	// StrategyJoinDB queries the storage medium for every incoming tuple
	// ("Join with Database").
	StrategyJoinDB
	// StrategyManyRules pre-creates one statement per threshold
	// combination ("Create Multiple Rules").
	StrategyManyRules
	// StrategyStream is the paper's choice, core.InstallRule: Listing 1
	// over the store's thresholds table ("Add the Thresholds in an Esper
	// stream").
	StrategyStream
)

var strategyNames = [...]string{"static", "join-with-db", "many-rules", "threshold-stream"}

func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategyNames[s]
}

// Strategies lists the Figure 10 strategies in plot order.
var Strategies = []Strategy{StrategyJoinDB, StrategyManyRules, StrategyStream, StrategyStatic}

// installStrategy installs rule r into eng under strategy s and returns the
// statements it added; threshold is StrategyStatic's literal, and every
// other strategy reads store.
func installStrategy(eng *cep.Engine, s Strategy, r core.Rule, store *sqlstore.ThresholdStore, threshold float64) ([]*cep.Statement, error) {
	if s == StrategyStream {
		inst, err := core.InstallRule(eng, r, core.InstallOptions{Store: store})
		if err != nil {
			return nil, err
		}
		return []*cep.Statement{inst.Statement}, nil
	}
	var names, srcs []string
	switch s {
	case StrategyStatic:
		names, srcs = []string{r.Name}, []string{staticEPL(r, threshold)}
	case StrategyJoinDB:
		registerDBThreshold(eng, store)
		names, srcs = []string{r.Name}, []string{joinDBEPL(r)}
	case StrategyManyRules:
		ths, err := store.Thresholds(r.Attribute, r.Sensitivity)
		if err != nil {
			return nil, err
		}
		for _, th := range ths {
			names = append(names, fmt.Sprintf("%s#%s#%d#%s", r.Name, th.Location, th.Hour, th.Day))
			srcs = append(srcs, perLocationEPL(r, th))
		}
	default:
		return nil, fmt.Errorf("experiments: unknown strategy %v", s)
	}
	var sts []*cep.Statement
	for i, src := range srcs {
		st, err := eng.AddStatement(names[i], src)
		if err != nil {
			for _, st := range sts {
				eng.RemoveStatement(st.Name)
			}
			return nil, err
		}
		sts = append(sts, st)
	}
	return sts, nil
}

// baselineEPL renders r as a baseline statement, closed by where and
// having: as in Listing 1, the last-event item restricts evaluation to the
// arriving tuple's location group.
func baselineEPL(r core.Rule, where, having string) string {
	return fmt.Sprintf(`SELECT bd2.%[1]s AS location, avg(bd2.%[2]s) AS observed
FROM %[3]s.std:lastevent() AS bd,
     %[3]s.std:groupwin(%[1]s).win:length(%[4]d) AS bd2
WHERE %[5]sbd.%[1]s = bd2.%[1]s
GROUP BY bd2.%[1]s
HAVING avg(bd2.%[2]s) > %[6]s`, r.LocationField(), r.Attribute, core.BusStream, r.Window, where, having)
}

// staticEPL renders r with a fixed literal threshold — the paper's
// "Optimal" baseline where no threshold retrieval happens at all.
func staticEPL(r core.Rule, threshold float64) string {
	return baselineEPL(r, "", fmt.Sprintf("%g", threshold))
}

// joinDBEPL renders r with a per-tuple database lookup — the "Join with
// Database" strategy. The db_threshold scalar function must be registered
// on the engine (registerDBThreshold).
func joinDBEPL(r core.Rule) string {
	return baselineEPL(r, "", fmt.Sprintf("db_threshold('%s', bd.%s, bd.hour, bd.day, %g)", r.Attribute, r.LocationField(), r.Sensitivity))
}

// perLocationEPL renders one statement of the "Create Multiple Rules"
// strategy: the threshold for one concrete (location, hour, day)
// combination is inlined as a literal.
func perLocationEPL(r core.Rule, th sqlstore.Threshold) string {
	where := fmt.Sprintf("bd.%s = '%s' AND bd.hour = %d AND bd.day = '%s' AND ", r.LocationField(), th.Location, th.Hour, th.Day)
	return baselineEPL(r, where, fmt.Sprintf("%g", th.Value))
}

// registerDBThreshold installs the db_threshold scalar function backed by
// the store: db_threshold(attribute, location, hour, day, s). Missing
// thresholds resolve to +Inf so the rule never fires for unknown locations.
func registerDBThreshold(eng *cep.Engine, store *sqlstore.ThresholdStore) {
	eng.RegisterFunction("db_threshold", func(args []cep.Value) (cep.Value, error) {
		if len(args) != 5 {
			return nil, fmt.Errorf("experiments: db_threshold takes 5 arguments, got %d", len(args))
		}
		attr, _ := args[0].(string)
		loc, _ := args[1].(string)
		hour, okHour := cep.Numeric(args[2])
		s, okS := cep.Numeric(args[4])
		if !okHour || !okS {
			return nil, fmt.Errorf("experiments: db_threshold hour %v or s %v is not numeric", args[2], args[4])
		}
		day := busdata.Weekday
		if args[3] == busdata.Weekend.String() {
			day = busdata.Weekend
		}
		v, found, err := store.Lookup(attr, loc, int(hour), day, s)
		if err != nil || found {
			return v, err
		}
		return math.Inf(1), nil
	})
}

// fig10Rule is the one rule Figure 10 measures.
var fig10Rule = core.Rule{
	Name:        "fig10",
	Attribute:   busdata.AttrDelay,
	Kind:        core.QuadtreeLayer,
	Layer:       2,
	Window:      10,
	Sensitivity: 1,
}

// NewFigure10Engine is Figure 10's set-up: an engine running the figure's
// rule under strategy s, over a store holding a threshold for each of
// `locations` areas at every hour on both day types — the full Listing 2
// result set the paper's engines join with. Every threshold is far above
// the values Figure10Event feeds, so the listener path does not pollute
// the retrieval comparison.
func NewFigure10Engine(s Strategy, locations int) (*cep.Engine, error) {
	store, err := sqlstore.NewThresholdStore(sqlstore.NewDB())
	if err != nil {
		return nil, err
	}
	var stats []sqlstore.StatRow
	for loc := 0; loc < locations; loc++ {
		for h := 0; h < 24; h++ {
			for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
				stats = append(stats, sqlstore.StatRow{
					Attribute: busdata.AttrDelay,
					Location:  fmt.Sprintf("area%03d", loc),
					Hour:      h, Day: day, Mean: 1e12, Stdv: 0,
				})
			}
		}
	}
	if err := store.Put(stats); err != nil {
		return nil, err
	}
	eng := cep.New()
	if _, err := installStrategy(eng, s, fig10Rule, store, 1e12); err != nil {
		return nil, err
	}
	return eng, nil
}

// Figure10Event is tuple i of Figure 10's feed over `locations` areas, for
// the core.BusStream of an engine NewFigure10Engine built.
func Figure10Event(i, locations int) map[string]cep.Value {
	return map[string]cep.Value{
		fig10Rule.LocationField(): fmt.Sprintf("area%03d", i%locations),
		"hour":                    float64(i % 24),
		"day":                     busdata.Weekday.String(),
		busdata.AttrDelay:         float64(i % 300),
	}
}

// Fig10Row is one time-window sample of Figure 10: per-strategy mean
// latency in milliseconds.
type Fig10Row struct {
	Window    int
	LatencyMs map[Strategy]float64
}

// Fig10Result holds the threshold-retrieval comparison of Figure 10.
type Fig10Result struct {
	Rows []Fig10Row
	// Mean per-tuple latency over the whole run per strategy.
	Mean map[Strategy]float64
}

// Figure10 measures the three threshold-retrieval strategies plus the
// static-threshold optimum on the live engine (NewFigure10Engine): one rule
// over `locations` areas, thresholds for every (hour, day type), `events`
// tuples split into `windows` reporting windows (the paper samples every
// 40 s).
func Figure10(locations, events, windows int) (Fig10Result, error) {
	if locations <= 0 {
		locations = 32
	}
	if events <= 0 {
		events = 4000
	}
	if windows <= 0 {
		windows = 8
	}
	res := Fig10Result{Rows: make([]Fig10Row, windows), Mean: make(map[Strategy]float64)}
	for i := range res.Rows {
		res.Rows[i] = Fig10Row{Window: i, LatencyMs: make(map[Strategy]float64)}
	}
	perWindow := max(events/windows, 1)
	batch := make([]map[string]cep.Value, perWindow)
	for _, strat := range Strategies {
		eng, err := NewFigure10Engine(strat, locations)
		if err != nil {
			return Fig10Result{}, err
		}
		var total time.Duration
		for w := range res.Rows {
			// Each window's events are built before its send loop is timed.
			for i := range batch {
				batch[i] = Figure10Event(w*perWindow+i, locations)
			}
			start := time.Now()
			for _, fields := range batch {
				if err := eng.SendEvent(core.BusStream, fields); err != nil {
					return Fig10Result{}, err
				}
			}
			took := time.Since(start)
			total += took
			res.Rows[w].LatencyMs[strat] = float64(took) / float64(perWindow) / float64(time.Millisecond)
		}
		res.Mean[strat] = float64(total) / float64(perWindow*windows) / float64(time.Millisecond)
	}
	return res, nil
}
