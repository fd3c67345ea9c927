package cep_test

import (
	"fmt"

	"trafficcep/internal/cep"
)

// ExampleEngine shows the basic Esper-style workflow: register a standing
// statement, attach a listener, stream events. Every arrival on cars is the
// latest event c, which triggers an evaluation over the window w of its
// road's last three cars.
func ExampleEngine() {
	engine := cep.New()
	stmt, err := engine.AddStatement("speeding",
		`SELECT avg(w.speed) AS avgSpeed
		 FROM cars.std:lastevent() AS c, cars.std:groupwin(road).win:length(3) AS w
		 WHERE c.road = w.road
		 HAVING avg(w.speed) > 100`)
	if err != nil {
		fmt.Println("add:", err)
		return
	}
	stmt.AddListener(func(_ *cep.Statement, outs []cep.Output) {
		for _, o := range outs {
			fmt.Printf("alert: avg speed %.1f\n", o.Fields["avgSpeed"])
		}
	})
	for _, speed := range []float64{90, 110, 140} {
		if err := engine.SendEvent("cars", map[string]cep.Value{"road": "M50", "speed": speed}); err != nil {
			fmt.Println("send:", err)
			return
		}
	}
	// Output:
	// alert: avg speed 113.3
}

// ExampleEngine_join demonstrates an equi-join of a stream with a table of
// reference data — the pattern behind the paper's threshold stream.
func ExampleEngine_join() {
	engine := cep.New()
	prices, _ := cep.NewTable([]string{"item", "price"}, 1, []map[string]cep.Value{{"item": "tea", "price": 2.5}})
	_ = engine.RegisterTable("prices", prices)
	stmt, _ := engine.AddStatement("enrich", `
		SELECT o.item AS item, max(p.price) AS price
		FROM orders.std:lastevent() AS o UNIDIRECTIONAL,
		     prices.win:keepall() AS p
		WHERE o.item = p.item`)
	stmt.AddListener(func(_ *cep.Statement, outs []cep.Output) {
		for _, o := range outs {
			fmt.Printf("%v costs %v\n", o.Fields["item"], o.Fields["price"])
		}
	})
	_ = engine.SendEvent("orders", map[string]cep.Value{"item": "tea"})
	// Output:
	// tea costs 2.5
}
