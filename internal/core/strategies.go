package core

import (
	"fmt"
	"math"

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
	// StrategyStream joins the rule with its thresholds as with a
	// dedicated Esper stream ("Add the Thresholds in an Esper stream"):
	// the rows such a stream's win:keepall() would hold, registered in the
	// engine as one table (cep.Engine.RegisterTable) under the rule's
	// ThresholdStream name. The store builds that table once per (attribute,
	// s) and statistics version, for every engine
	// (sqlstore.ThresholdStore.ThresholdTable).
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
	// its thresholds table holds every location in the store, so that a
	// location the engine gains has its thresholds already. Every
	// restricted rule on one field of an engine serves that one set, which
	// a rebalance grows and shrinks as locations move; it may start empty.
	// Under StrategyManyRules they filter the thresholds.
	Locations map[string]bool
}

// InstalledRule tracks what InstallRule created in an engine so it can be
// refreshed or removed later.
type InstalledRule struct {
	Rule       Rule
	Options    InstallOptions
	Statements []string
	engine     *cep.Engine
	// listeners are re-attached to the fresh statements on every
	// Refresh that rebuilds them.
	listeners []cep.Listener
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
		if err := inst.publishThresholds(); err != nil {
			return err
		}
		if !inst.restricted() {
			return add(eng.AddStatement(r.Name, r.StreamEPL()))
		}
		return add(eng.AddOwnedStatement(r.Name, r.StreamEPL(), BusStream, r.LocationField()))
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

// thresholdTable returns the rule's current thresholds table: the one the
// store built for the rule's attribute and sensitivity from the current
// version of its statistics, which every engine installing a rule on the
// same (attribute, s) shares. A store that holds no thresholds for the
// attribute is an error, as in ruleThresholds.
func thresholdTable(store *sqlstore.ThresholdStore, r Rule) (*cep.Table, error) {
	t, err := store.ThresholdTable(r.Attribute, r.Sensitivity)
	if err == nil && t.Len() == 0 {
		err = fmt.Errorf("core: rule %q: the store holds no %s thresholds", r.Name, r.Attribute)
	}
	return t, err
}

// publishThresholds registers the rule's current thresholds table in its
// engine, in place of the version its statement read so far; a table the
// engine already holds is kept as it is.
func (inst *InstalledRule) publishThresholds() error {
	t, err := thresholdTable(inst.Options.Store, inst.Rule)
	if err != nil {
		return err
	}
	return inst.engine.RegisterTable(inst.Rule.ThresholdStream(), t)
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

// Refresh hands the rule freshly retrieved thresholds — the dynamic-rule
// update step after each batch-layer run. Under StrategyStream it
// registers the store's current thresholds table for the rule's (attribute,
// s) and keeps the statement, with its windows and listeners: after a
// statistics write the first engine to refresh builds the new version and
// the others register that one. StrategyManyRules re-installs its
// per-threshold statements. For StrategyStatic and StrategyJoinDB nothing
// needs rebuilding (the former has no dynamic thresholds; the latter reads
// the store on every tuple).
func (inst *InstalledRule) Refresh() error {
	switch inst.Options.Strategy {
	case StrategyStatic, StrategyJoinDB:
		return nil
	case StrategyStream:
		return inst.publishThresholds()
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
