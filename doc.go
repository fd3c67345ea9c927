// Package trafficcep is a from-scratch Go reproduction of "Insights on a
// Scalable and Dynamic Traffic Management System" (Zygouras, Zacheilas,
// Kalogeraki, Kinane, Gunopulos — EDBT 2015): a scalable, dynamic
// complex-event-processing system for city traffic monitoring that the
// paper built by combining Storm, Esper, Hadoop, HDFS and MySQL.
//
// Every substrate is reimplemented in this repository with the standard
// library only:
//
//   - internal/storm — a Storm-like stream-processing runtime (spouts,
//     bolts, tasks/executors, groupings, XML topologies, 40 s monitoring);
//   - internal/epl + internal/cep — an Esper-like CEP engine with an EPL
//     subset (views, windows, joins, aggregates, listeners);
//   - internal/mapreduce + internal/dfs — a Hadoop/HDFS-like batch layer,
//     the reference core's tests check the in-stream threshold statistics
//     against;
//   - internal/sqlstore — the MySQL-like storage medium with a small SQL
//     SELECT evaluator;
//   - internal/quadtree, internal/denclue, internal/geo, internal/busdata —
//     the spatial tooling and a calibrated synthetic Dublin bus feed;
//   - internal/core — the paper's contributions: the generic rule template,
//     the latency estimation model (regression Functions 1–3), the rule
//     partitioning (Algorithm 1) and rules allocation (Algorithm 2)
//     components, rule installation over a shared thresholds table, the
//     dynamic thresholds loop over in-stream statistics partials, and the
//     Figure 8 topology;
//   - internal/cluster + internal/experiments — the calibrated cluster
//     model and the harness that regenerates every table and figure of the
//     paper's evaluation, Figure 10's baseline threshold strategies among
//     them.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured comparison. The benchmarks in
// bench_test.go regenerate each figure; run them with
//
//	go test -bench=. -benchmem .
package trafficcep
