package serve

import (
	"time"

	"vmp/internal/telemetry"
)

// serverMetrics holds the daemon's telemetry handles. The hand-rolled
// /statsz atomics this replaces live on as Value() reads over these
// counters — the registry is the one source of truth.
type serverMetrics struct {
	submissions   *telemetry.Counter
	shed          *telemetry.Counter
	quotaRejected *telemetry.Counter
	cacheHitCells *telemetry.Counter
	computedCells *telemetry.Counter
	faultedCells  *telemetry.Counter
	repairedCells *telemetry.Counter
	mismatches    *telemetry.Counter

	// jobsFinished is labeled by terminal state (done/failed/canceled);
	// the client families attribute quota rejections and sheds to the
	// client that caused them (bounded cardinality, see telemetry.Family).
	jobsFinished  *telemetry.Family
	clientQuota   *telemetry.Family
	clientShed    *telemetry.Family
	clientSubmits *telemetry.Family

	// Job-lifecycle latency distributions, in seconds.
	queueWait *telemetry.Histogram
	runDur    *telemetry.Histogram
	storePut  *telemetry.Histogram
}

// newServerMetrics registers the daemon's metrics.
func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	return &serverMetrics{
		submissions:   reg.Counter("vmpd_submissions_total", "Compute submissions received (specs and grids)."),
		shed:          reg.Counter("vmpd_shed_total", "Submissions shed (queue full or shed mode)."),
		quotaRejected: reg.Counter("vmpd_quota_rejected_total", "Submissions rejected by per-client quota."),
		cacheHitCells: reg.Counter("vmpd_cache_hit_cells_total", "Cells answered from the result store."),
		computedCells: reg.Counter("vmpd_computed_cells_total", "Cells computed by the simulator."),
		faultedCells:  reg.Counter("vmpd_faulted_cells_total", "Cells that errored or panicked (contained)."),
		repairedCells: reg.Counter("vmpd_repaired_cells_total", "Corrupt stored records recomputed and repaired."),
		mismatches:    reg.Counter("vmpd_determinism_mismatches_total", "Stored-vs-recomputed byte divergences (must stay 0)."),

		jobsFinished:  reg.CounterFamily("vmpd_jobs_finished_total", "Jobs reaching a terminal state.", "state"),
		clientQuota:   reg.CounterFamily("vmpd_client_quota_rejected_total", "Quota rejections per client.", "client"),
		clientShed:    reg.CounterFamily("vmpd_client_shed_total", "Sheds per client.", "client"),
		clientSubmits: reg.CounterFamily("vmpd_client_submissions_total", "Submissions per client.", "client"),

		queueWait: reg.Histogram("vmpd_job_queue_wait_seconds", "Admission-to-run wait per job.", nil),
		runDur:    reg.Histogram("vmpd_job_run_seconds", "Run-to-terminal duration per job.", nil),
		storePut:  reg.Histogram("vmpd_store_put_seconds", "Durable store write latency per computed cell.", telemetry.StorePutBuckets),
	}
}

// registerServerGauges wires the live-read gauges: values that already
// exist on the Server and are read at scrape time instead of being
// double-booked.
func registerServerGauges(reg *telemetry.Registry, s *Server) {
	reg.GaugeFunc("vmpd_queue_depth", "Jobs waiting in the submission queue.", func() float64 {
		return float64(len(s.queue))
	})
	reg.GaugeFunc("vmpd_queue_cap", "Submission queue capacity.", func() float64 {
		return float64(cap(s.queue))
	})
	reg.GaugeFunc("vmpd_job_active", "1 while a job is mid-run.", func() float64 {
		return b2f(s.jobActive.Load())
	})
	reg.GaugeFunc("vmpd_draining", "1 while the daemon refuses new work to drain.", func() float64 {
		return b2f(s.draining.Load())
	})
	reg.GaugeFunc("vmpd_shedding", "1 while compute submissions are shed.", func() float64 {
		return b2f(s.shedding.Load())
	})
	reg.GaugeFunc("vmpd_quota_clients", "Clients tracked by the quota table.", func() float64 {
		return float64(s.quotas.Clients())
	})
	reg.GaugeFunc("vmpd_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(s.started).Seconds()
	})
	// The store owns its eviction counter (sweeps run inside Put, under
	// the store's own lock), so it is surfaced live rather than
	// double-booked into a registry counter.
	reg.GaugeFunc("vmpd_store_evictions_total", "Records evicted by the store's LRU size cap.", func() float64 {
		return float64(s.store.Stats().Evictions)
	})
	reg.GaugeFunc("vmpd_store_max_bytes", "Configured store size cap (0 = unbounded).", func() float64 {
		return float64(s.cfg.StoreMaxBytes)
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
