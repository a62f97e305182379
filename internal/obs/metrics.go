package obs

// Default is the process-wide registry every Skalla layer records into and
// the daemons' /metrics endpoint serves.
var Default = NewRegistry()

// The Skalla metric set. Naming: skalla_<layer>_<quantity>_<unit>[_total].
// Labels: site (site index as decimal), query (coordinator-assigned query ID,
// "none" outside a query), direction ("down" = coordinator→site, "up" =
// site→coordinator), kind (request kind), status/source as noted.
var (
	// Coordinator layer (internal/core).
	CoordQueries = Default.CounterVec("skalla_coord_queries_total",
		"Distributed query evaluations finished by the coordinator, by terminal status (ok, error).",
		"status")
	CoordActiveQueries = Default.Gauge("skalla_coord_active_queries",
		"Distributed query evaluations currently in flight at the coordinator.")
	CoordRounds = Default.CounterVec("skalla_coord_rounds_total",
		"Synchronization rounds driven by the coordinator.",
		"query")
	CoordSyncMerge = Default.HistogramVec("skalla_coord_sync_merge_seconds",
		"Coordinator synchronization work per merge step (one H block, local-X merge, or base union).",
		DurationBuckets, "query")
	CoordRetries = Default.CounterVec("skalla_coord_site_retries_total",
		"Site-call attempts the coordinator retried after a transient failure, by site.",
		"site")
	CoordSlowQueries = Default.Counter("skalla_coord_slow_queries_total",
		"Queries whose end-to-end elapsed time exceeded the -slow-query threshold (each logs its full profile).")

	// Transport client side (internal/transport; the coordinator's view).
	TransportCalls = Default.CounterVec("skalla_transport_calls_total",
		"Coordinator→site exchanges issued, by site and request kind.",
		"site", "kind")
	TransportBytes = Default.CounterVec("skalla_transport_bytes_total",
		"Wire bytes per coordinator↔site exchange, by site, direction and query.",
		"site", "direction", "query")
	TransportDataBytes = Default.CounterVec("skalla_transport_data_bytes_total",
		"Data-plane (relation-codec frame) share of the wire bytes, by site, direction and query.",
		"site", "direction", "query")
	TransportRows = Default.CounterVec("skalla_transport_rows_total",
		"Base-structure / sub-aggregate rows shipped per exchange, by site, direction and query.",
		"site", "direction", "query")
	SiteCompute = Default.HistogramVec("skalla_site_compute_seconds",
		"Site-side compute time per exchange, as reported in the terminal response.",
		DurationBuckets, "site")
	SiteBroken = Default.GaugeVec("skalla_transport_site_broken",
		"Whether the client connection to a site is poisoned and awaiting redial (1) or healthy (0).",
		"site")
	TransportRedials = Default.CounterVec("skalla_transport_redials_total",
		"Reconnection attempts after a broken site connection, by site and outcome (ok, error).",
		"site", "status")

	// Transport server side (the site daemon's view of inbound requests).
	ServerRequests = Default.CounterVec("skalla_server_requests_total",
		"Requests served by this site, by request kind.",
		"kind")
	ServerBytes = Default.CounterVec("skalla_server_bytes_total",
		"Connection bytes at this site, by direction (down = received, up = sent).",
		"direction")
	ServerActiveConns = Default.Gauge("skalla_server_active_connections",
		"Open coordinator connections at this site.")

	// Relation wire codec (internal/relation).
	CodecEncodeBytes = Default.Counter("skalla_codec_encode_bytes_total",
		"Bytes produced by the relation wire codec encoder (frame headers included).")
	CodecDecodeBytes = Default.Counter("skalla_codec_decode_bytes_total",
		"Bytes consumed by the relation wire codec decoder (frame headers included).")
	CodecFrames = Default.CounterVec("skalla_codec_frames_total",
		"Relation wire codec frames processed, by operation (encode, decode).",
		"op")

	// Segment store (internal/store).
	StoreSegmentReads = Default.CounterVec("skalla_store_segment_reads_total",
		"Table segment reads, by source (disk = decoded from file, cache = LRU hit).",
		"source")
	StoreSegmentRows = Default.Counter("skalla_store_segment_rows_total",
		"Rows decoded from disk segments (cache hits excluded).")

	// Site evaluation engine (internal/engine + internal/gmdj).
	EngineEvals = Default.CounterVec("skalla_engine_evals_total",
		"Site-side evaluations, by kind (base, operator, local).",
		"kind")
	EngineBlocks = Default.Counter("skalla_engine_blocks_emitted_total",
		"H blocks emitted by site operator evaluations (row blocking counts each block).")
	EngineRowsScanned = Default.Counter("skalla_engine_rows_scanned_total",
		"Detail-relation rows scanned by GMDJ evaluation (base and operator passes).")
	EngineWorkerRows = Default.CounterVec("skalla_engine_worker_rows_scanned_total",
		"Detail-relation rows scanned by parallel evaluation workers, by worker index (skewed shard assignments show up as unbalanced series).",
		"worker")
	EngineEvalWorkers = Default.Gauge("skalla_engine_eval_workers",
		"Effective worker count of the most recent sharded scan (1 = sequential).")

	// Coordinator merge parallelism (internal/core).
	CoordMergeWorkers = Default.Gauge("skalla_coord_merge_workers",
		"Concurrent per-site stage commits currently running in the coordinator's sync-merge.")

	// Multi-tenant query server (internal/server sessions; admission control
	// and the prepared-plan cache live in internal/core but serve the same
	// deployment surface, so the whole family shares the server layer name).
	ServerActiveSessions = Default.Gauge("skalla_server_active_sessions",
		"Client sessions currently connected to the coordinator's query server.")
	ServerSessions = Default.Counter("skalla_server_sessions_total",
		"Client sessions accepted by the coordinator's query server since start.")
	ServerQueries = Default.CounterVec("skalla_server_queries_total",
		"Statements finished by the query server, by terminal status (ok, error, rejected, shutdown).",
		"status")
	ServerQueuedQueries = Default.Gauge("skalla_server_queued_queries",
		"Queries admitted to the wait queue and not yet executing.")
	ServerAdmissionRejects = Default.Counter("skalla_server_admission_rejects_total",
		"Queries rejected because the admission wait queue was full.")
	ServerPlanCacheHits = Default.Counter("skalla_server_plan_cache_hits_total",
		"Prepared-plan cache hits (parse+optimize skipped, compiled plan reused).")
	ServerPlanCacheMisses = Default.CounterVec("skalla_server_plan_cache_misses_total",
		"Prepared-plan cache misses, by reason (cold = not cached, generation = catalog generation moved and the stale entry was dropped).",
		"reason")
	ServerSingleflightLeaders = Default.Counter("skalla_server_singleflight_leaders_total",
		"Queries that ran distributed rounds as a single-flight leader while at least one follower awaited the shared result.")
	ServerSingleflightFollowers = Default.Counter("skalla_server_singleflight_followers_total",
		"Queries served from a concurrent leader's committed result without issuing their own site rounds.")

	// Super-aggregate result cache (internal/core; coordinator layer: entries
	// hold finalized X relations keyed by plan fingerprint).
	CoordResultCacheHits = Default.Counter("skalla_coord_result_cache_hits_total",
		"Super-aggregate result cache hits (repeat queries served with zero site rounds).")
	CoordResultCacheMisses = Default.CounterVec("skalla_coord_result_cache_misses_total",
		"Super-aggregate result cache misses, by reason (cold = not cached, generation = catalog generation moved and the stale entry was dropped).",
		"reason")
	CoordResultCacheEntries = Default.Gauge("skalla_coord_result_cache_entries",
		"Super-aggregate results currently cached at the coordinator.")
	CoordBatchFlushes = Default.Counter("skalla_coord_batch_flushes_total",
		"Batched site exchanges issued (several queries' operator calls served from one shared detail scan).")
	CoordBatchMembers = Default.Counter("skalla_coord_batch_members_total",
		"Operator calls served as members of a batched site exchange.")

	// Planner (internal/plan, recorded by internal/core at compile time).
	PlanRulesApplied = Default.CounterVec("skalla_plan_rule_applied_total",
		"Optimizer rules applied to compiled plans, by rule name (auto-mode candidates are not counted; only the chosen plan is).",
		"rule")
	PlanCostEstimate = Default.GaugeVec("skalla_plan_cost_estimate_bytes",
		"Estimated communication of the most recently compiled plan, by direction (down = coordinator→site).",
		"direction")
	PlanCostErrorRatio = Default.FloatGaugeVec("skalla_plan_cost_error_ratio",
		"Actual ÷ estimated communication bytes of the most recently finished query, by direction (1 = calibrated; unset while no estimated query has run).",
		"direction")
)

// QueryLabel normalizes a query ID for use as a metric label value.
func QueryLabel(id string) string {
	if id == "" {
		return "none"
	}
	return id
}
