package core

import (
	"fmt"
	"math"
	"sync"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
)

// ThresholdStrategy selects how a rule obtains its dynamic thresholds
// (§4.3.1). The paper evaluates all four in Figure 10 and adopts
// StrategyStream.
type ThresholdStrategy int

// Threshold retrieval strategies.
const (
	// StrategyStatic uses a fixed literal threshold: the "Optimal"
	// baseline with no retrieval overhead.
	StrategyStatic ThresholdStrategy = iota
	// StrategyJoinDB queries the storage medium for every incoming tuple
	// ("Join with Database").
	StrategyJoinDB
	// StrategyManyRules pre-creates one statement per threshold
	// combination ("Create Multiple Rules").
	StrategyManyRules
	// StrategyStream loads the thresholds into a dedicated Esper stream
	// that the rule joins with ("Add the Thresholds in an Esper stream").
	StrategyStream
)

func (s ThresholdStrategy) String() string {
	switch s {
	case StrategyStatic:
		return "static"
	case StrategyJoinDB:
		return "join-with-db"
	case StrategyManyRules:
		return "many-rules"
	case StrategyStream:
		return "threshold-stream"
	}
	return fmt.Sprintf("ThresholdStrategy(%d)", int(s))
}

// InstallOptions configure InstallRule.
type InstallOptions struct {
	Strategy ThresholdStrategy
	// Store supplies thresholds; required for every strategy except
	// StrategyStatic.
	Store *sqlstore.ThresholdStore
	// StaticThreshold is the literal for StrategyStatic.
	StaticThreshold float64
	// Locations restricts the rule to a subset of locations (the
	// engine's Algorithm 1 share); nil means all locations in the store.
	// Under StrategyStream they join the engine's owned-key set for the
	// rule's location field (cep.Engine.Own): the rule windows and
	// evaluates only the bus events whose location the engine owns, and
	// holds thresholds for all of them. Every restricted rule on one field
	// of an engine serves that one set, which a rebalance grows and shrinks
	// as locations move; it may start empty. Under StrategyManyRules they
	// filter the thresholds.
	Locations map[string]bool
	// Listener receives the rule's firings.
	Listener cep.Listener
}

// InstalledRule tracks what InstallRule created in an engine so it can be
// refreshed or removed later.
type InstalledRule struct {
	Rule       Rule
	Options    InstallOptions
	Statements []string
	engine     *cep.Engine
	// listeners are re-attached to the fresh statements on every
	// Refresh (unlike Options.Listener, which install wires itself).
	listeners []cep.Listener

	// loaded holds the locations whose thresholds a restricted rule's
	// current statements were fed: their win:keepall() never evicts, so a
	// location lost and regained must not be loaded twice. install resets
	// it with the statements; mu guards it, since an ownership tuple and a
	// batch-layer Refresh may load at once.
	mu     sync.Mutex
	loaded map[string]bool
}

// AddListener attaches a listener to every current statement of the rule
// and remembers it so Refresh re-attaches it to the replacement statements.
func (inst *InstalledRule) AddListener(l cep.Listener) {
	inst.listeners = append(inst.listeners, l)
	for _, name := range inst.Statements {
		if st, ok := inst.engine.Statement(name); ok {
			st.AddListener(l)
		}
	}
}

// InstallRule installs one template rule into an engine under the chosen
// threshold retrieval strategy. It returns a handle for refreshes; an
// install that fails leaves no statement behind.
func InstallRule(eng *cep.Engine, r Rule, opts InstallOptions) (*InstalledRule, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if opts.Strategy != StrategyStatic && opts.Store == nil {
		return nil, fmt.Errorf("core: strategy %v requires a threshold store", opts.Strategy)
	}
	inst := &InstalledRule{Rule: r, Options: opts, engine: eng}
	if inst.restricted() {
		locs := make([]string, 0, len(opts.Locations))
		for l := range opts.Locations {
			locs = append(locs, l)
		}
		eng.Own(BusStream, r.LocationField(), locs...)
	}
	if err := inst.install(); err != nil {
		inst.Remove()
		return nil, err
	}
	return inst, nil
}

// restricted reports whether the rule reads the bus stream through its
// engine's owned-key set for the rule's location field.
func (inst *InstalledRule) restricted() bool {
	return inst.Options.Strategy == StrategyStream && inst.Options.Locations != nil
}

func (inst *InstalledRule) install() error {
	eng, r, opts := inst.engine, inst.Rule, inst.Options
	add := func(st *cep.Statement, err error) error {
		if err != nil {
			return err
		}
		if opts.Listener != nil {
			st.AddListener(opts.Listener)
		}
		for _, l := range inst.listeners {
			st.AddListener(l)
		}
		inst.Statements = append(inst.Statements, st.Name)
		return nil
	}

	switch opts.Strategy {
	case StrategyStatic:
		return add(eng.AddStatement(r.Name, r.StaticEPL(opts.StaticThreshold)))

	case StrategyJoinDB:
		registerDBThreshold(eng, opts.Store)
		return add(eng.AddStatement(r.Name, r.JoinDBEPL()))

	case StrategyManyRules:
		ths, err := ruleThresholds(opts.Store, r)
		if err != nil {
			return err
		}
		for _, th := range ths {
			if opts.Locations != nil && !opts.Locations[th.Location] {
				continue
			}
			name := fmt.Sprintf("%s#%s#%d#%s", r.Name, th.Location, th.Hour, th.Day)
			if err := add(eng.AddStatement(name, r.PerLocationEPL(th.Location, th.Hour, th.Day, th.Value))); err != nil {
				return err
			}
		}
		return nil

	case StrategyStream:
		if !inst.restricted() {
			if err := add(eng.AddStatement(r.Name, r.StreamEPL())); err != nil {
				return err
			}
			return loadThresholdStream(eng, r, opts.Store, nil)
		}
		field := r.LocationField()
		inst.mu.Lock()
		inst.loaded = nil
		inst.mu.Unlock()
		if err := add(eng.AddOwnedStatement(r.Name, r.StreamEPL(), BusStream, field)); err != nil {
			return err
		}
		return inst.loadThresholds(eng.Owned(BusStream, field))
	}
	return fmt.Errorf("core: unknown strategy %v", opts.Strategy)
}

// ruleThresholds returns the rule's stored thresholds, and an error when the
// store holds none for its attribute. A location subset that matches none
// of them is not an error: an engine may own no location of the rule yet.
func ruleThresholds(store *sqlstore.ThresholdStore, r Rule) ([]sqlstore.Threshold, error) {
	ths, err := store.Thresholds(r.Attribute, r.Sensitivity)
	if err == nil && len(ths) == 0 {
		err = fmt.Errorf("core: rule %q: the store holds no %s thresholds", r.Name, r.Attribute)
	}
	return ths, err
}

// loadThresholdStream pushes the rule's thresholds for locations (every one
// when nil) into its Esper stream.
func loadThresholdStream(eng *cep.Engine, r Rule, store *sqlstore.ThresholdStore, locations map[string]bool) error {
	ths, err := ruleThresholds(store, r)
	if err != nil {
		return err
	}
	for _, th := range ths {
		if locations != nil && !locations[th.Location] {
			continue
		}
		err := eng.SendEvent(r.ThresholdStream(), map[string]cep.Value{
			"location": th.Location,
			"hour":     float64(th.Hour),
			"day":      th.Day.String(),
			"value":    th.Value,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// loadThresholds feeds a restricted rule's statements the thresholds of the
// locations in set they were not fed yet.
func (inst *InstalledRule) loadThresholds(set map[string]bool) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	fresh := make(map[string]bool, len(set))
	for l := range set {
		if !inst.loaded[l] {
			fresh[l] = true
		}
	}
	if err := loadThresholdStream(inst.engine, inst.Rule, inst.Options.Store, fresh); err != nil {
		return err
	}
	if inst.loaded == nil {
		inst.loaded = make(map[string]bool, len(fresh))
	}
	for l := range fresh {
		inst.loaded[l] = true
	}
	return nil
}

// registerDBThreshold installs the db_threshold scalar function backed by
// the store: db_threshold(attribute, location, hour, day, s). Missing
// thresholds resolve to +Inf so the rule never fires for unknown locations.
func registerDBThreshold(eng *cep.Engine, store *sqlstore.ThresholdStore) {
	eng.RegisterFunction("db_threshold", func(args []cep.Value) (cep.Value, error) {
		if len(args) != 5 {
			return nil, fmt.Errorf("core: db_threshold takes 5 arguments, got %d", len(args))
		}
		attr, _ := args[0].(string)
		loc, _ := args[1].(string)
		hour, ok := cep.Numeric(args[2])
		if !ok {
			return nil, fmt.Errorf("core: db_threshold hour %v is not numeric", args[2])
		}
		dayStr, _ := args[3].(string)
		s, ok := cep.Numeric(args[4])
		if !ok {
			return nil, fmt.Errorf("core: db_threshold s %v is not numeric", args[4])
		}
		day := busdata.Weekday
		if dayStr == busdata.Weekend.String() {
			day = busdata.Weekend
		}
		v, found, err := store.Lookup(attr, loc, int(hour), day, s)
		if err != nil {
			return nil, err
		}
		if !found {
			return math.Inf(1), nil
		}
		return v, nil
	})
}

// Refresh re-installs the rule with freshly retrieved thresholds — the
// dynamic-rule update step after each batch-layer run; a restricted rule
// gets them for the locations its engine owns now. For StrategyStatic
// and StrategyJoinDB nothing needs rebuilding (the former has no dynamic
// thresholds; the latter reads the store on every tuple).
func (inst *InstalledRule) Refresh() error {
	switch inst.Options.Strategy {
	case StrategyStatic, StrategyJoinDB:
		return nil
	}
	for _, name := range inst.Statements {
		inst.engine.RemoveStatement(name)
	}
	inst.Statements = nil
	return inst.install()
}

// Remove drops every statement the rule installed.
func (inst *InstalledRule) Remove() {
	for _, name := range inst.Statements {
		inst.engine.RemoveStatement(name)
	}
	inst.Statements = nil
}
