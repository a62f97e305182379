// Package obs is Skalla's observability layer: a dependency-free metrics
// registry (atomic counters, gauges, and fixed-bucket histograms with
// Prometheus text exposition), structured logging built on log/slog, a
// query/round/site-call span model that the coordinator drives and that owns
// each query's profile (the one per-query ledger), and an opt-in HTTP
// endpoint surface (/metrics, /healthz, pprof) for the long-running daemons.
//
// The paper's evaluation (Sect. 5) is a measurement exercise — bytes shipped,
// rows per round, site versus coordinator time — and the communication-cost
// model of parallel query processing makes rounds and per-server load *the*
// cost metrics. This package makes those quantities live and queryable while
// a deployment serves, instead of only visible in end-of-query totals.
//
// Design constraints:
//
//   - Hot paths touch only atomics. Counters, gauges and histogram buckets
//     are lock-free; label resolution (a read-locked map lookup) happens once
//     per site call, never per row.
//   - No third-party dependencies: exposition is the Prometheus text format
//     written by hand, logging is the standard library's slog.
//   - Metric naming: skalla_<layer>_<quantity>_<unit>[_total], with layers
//     coord, transport, server, codec, store, engine. Cardinality-carrying
//     labels (query) are capped per family; overflowing series collapse into
//     a label value of "other".
package obs
