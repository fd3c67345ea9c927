package core

import (
	"fmt"

	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
)

// ThresholdStrategy names how a rule obtains its dynamic thresholds
// (§4.3.1). The paper evaluates four ways in Figure 10 and adopts the
// threshold stream, the one way InstallRule has; the three baselines live in
// internal/experiments. The type, like InstallOptions.Strategy, is kept only
// because the benchmark adapter names it, and is deleted with ROADMAP item
// 1, which changes that adapter.
type ThresholdStrategy int

// StrategyStream joins the rule with its thresholds as with a dedicated
// Esper stream ("Add the Thresholds in an Esper stream"): the rows such a
// stream's win:keepall() would hold, registered in the engine as one table
// (cep.Engine.RegisterTable) under the rule's ThresholdStream name. The
// store builds that table once per (attribute, s) and statistics version,
// for every engine (sqlstore.ThresholdStore.ThresholdTable).
const StrategyStream ThresholdStrategy = 0

// InstallOptions configure InstallRule.
type InstallOptions struct {
	// Strategy is kept only for the benchmark adapter, which sets it; its
	// one value is the zero value. Deleted with ROADMAP item 1.
	Strategy ThresholdStrategy
	// Store supplies the thresholds table; required.
	Store *sqlstore.ThresholdStore
	// Locations restricts the rule to a subset of locations (the
	// engine's Algorithm 1 share); nil means all locations in the store.
	// They join the engine's owned-key set for the rule's location field
	// (cep.Engine.Own): the rule windows and evaluates only the bus events
	// whose location the engine owns, and its thresholds table holds every
	// location in the store, so that a location the engine gains has its
	// thresholds already. Every restricted rule on one field of an engine
	// serves that one set, which a rebalance grows and shrinks as locations
	// move; it may start empty.
	Locations map[string]bool
}

// InstalledRule is a rule InstallRule put into an engine: its one Listing 1
// statement, which Refresh hands new thresholds and Remove drops.
type InstalledRule struct {
	Rule      Rule
	Statement *cep.Statement
	store     *sqlstore.ThresholdStore
	engine    *cep.Engine
}

// AddListener attaches a listener to the rule's statement.
func (inst *InstalledRule) AddListener(l cep.Listener) { inst.Statement.AddListener(l) }

// InstallRule installs one template rule into an engine: Listing 1
// (Rule.StreamEPL) over the store's current thresholds table for the rule's
// (attribute, s), restricted to the engine's owned keys when
// opts.Locations is set. It returns a handle for refreshes; an install that
// fails adds no statement.
func InstallRule(eng *cep.Engine, r Rule, opts InstallOptions) (*InstalledRule, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if opts.Store == nil {
		return nil, fmt.Errorf("core: rule %q: installing requires a threshold store", r.Name)
	}
	inst := &InstalledRule{Rule: r, store: opts.Store, engine: eng}
	if err := inst.Refresh(); err != nil {
		return nil, err
	}
	var err error
	if opts.Locations == nil {
		inst.Statement, err = eng.AddStatement(r.Name, r.StreamEPL())
	} else {
		locs := make([]string, 0, len(opts.Locations))
		for l := range opts.Locations {
			locs = append(locs, l)
		}
		eng.Own(BusStream, r.LocationField(), locs...)
		inst.Statement, err = eng.AddOwnedStatement(r.Name, r.StreamEPL(), BusStream, r.LocationField())
	}
	if err != nil {
		return nil, err
	}
	return inst, nil
}

// thresholdTable returns the rule's current thresholds table: the one the
// store built for the rule's attribute and sensitivity from the current
// version of its statistics, which every engine installing a rule on the
// same (attribute, s) shares. A store that holds no thresholds for the
// attribute is an error. A location subset that matches none of them is
// not: an engine may own no location of the rule yet.
func thresholdTable(store *sqlstore.ThresholdStore, r Rule) (*cep.Table, error) {
	t, err := store.ThresholdTable(r.Attribute, r.Sensitivity)
	if err == nil && t.Len() == 0 {
		err = fmt.Errorf("core: rule %q: the store holds no %s thresholds", r.Name, r.Attribute)
	}
	return t, err
}

// Refresh hands the rule freshly retrieved thresholds — the dynamic-rule
// update step after each batch-layer run. It registers the store's current
// thresholds table for the rule's (attribute, s) in place of the version
// the statement read so far, and keeps the statement, with its windows and
// listeners: after a statistics write the first engine to refresh builds
// the new version and the others register that one. A table the engine
// already holds is kept as it is.
func (inst *InstalledRule) Refresh() error {
	t, err := thresholdTable(inst.store, inst.Rule)
	if err != nil {
		return err
	}
	return inst.engine.RegisterTable(inst.Rule.ThresholdStream(), t)
}

// Remove drops the rule's statement.
func (inst *InstalledRule) Remove() { inst.engine.RemoveStatement(inst.Statement.Name) }
