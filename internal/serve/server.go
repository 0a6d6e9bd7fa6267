package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmp/internal/obs"
	"vmp/internal/scenario"
	"vmp/internal/telemetry"
)

// Config tunes the daemon. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// StoreDir is the result-store root (default "vmpd-store").
	StoreDir string
	// Workers is the cell concurrency inside one job (default
	// GOMAXPROCS). Jobs themselves run one at a time: the queue is the
	// backpressure boundary, the worker pool the parallelism boundary.
	Workers int
	// QueueDepth bounds the submission queue; a full queue sheds with
	// 429 + Retry-After (default 16).
	QueueDepth int
	// QuotaRate and QuotaBurst are the per-client token bucket:
	// QuotaRate admissions per second, QuotaBurst capacity (defaults
	// 5/s, burst 10).
	QuotaRate  float64
	QuotaBurst float64
	// JobBudget is the default per-job wall-clock budget; a client may
	// request less, or more up to MaxJobBudget (defaults 2m / 10m).
	JobBudget    time.Duration
	MaxJobBudget time.Duration
	// MaxCells caps a grid expansion (default 1024).
	MaxCells int
	// MaxBodyBytes caps a submission body (default 8 MB).
	MaxBodyBytes int64
	// StoreMaxBytes caps the result store's total object bytes;
	// past it the least-recently-used records are evicted (swept at
	// startup and after every put). 0 means unbounded.
	StoreMaxBytes int64
	// Shed starts the daemon in load-shedding mode: compute
	// submissions are rejected, cache hits still served.
	Shed bool
	// Metrics is the telemetry registry to register the daemon's
	// metrics in; nil means the server creates its own (telemetry is on
	// by default — /statsz and /metricsz are views over it).
	Metrics *telemetry.Registry
	// DisableTelemetry runs the daemon with nil telemetry handles: the
	// single-branch disabled path throughout, no registry. /statsz
	// counter fields then read zero. Only the overhead guard should
	// want this; it is ignored when Metrics is set.
	DisableTelemetry bool
	// Log receives structured request/job logs; nil discards.
	Log *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.StoreDir == "" {
		c.StoreDir = "vmpd-store"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.QuotaRate <= 0 {
		c.QuotaRate = 5
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 10
	}
	if c.JobBudget <= 0 {
		c.JobBudget = 2 * time.Minute
	}
	if c.MaxJobBudget <= 0 {
		c.MaxJobBudget = 10 * time.Minute
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
}

// maxJobs bounds the in-memory job table; past it the oldest terminal
// jobs are evicted.
const maxJobs = 1024

// Server is the vmpd daemon core: admission control, the job queue and
// runner, and the fingerprint-keyed result store, exposed as an
// http.Handler.
type Server struct {
	cfg    Config
	store  *Store
	quotas *Quotas

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string

	// repairPending remembers fingerprints whose stored record was
	// found corrupt (and quarantined); the next successful recompute
	// of such a fingerprint counts as a repair.
	repairPending sync.Map

	queue  chan *job
	jobSeq atomic.Int64

	shedding atomic.Bool
	draining atomic.Bool
	// jobActive marks a job mid-run (for drain and queue-depth
	// accounting).
	jobActive atomic.Bool

	// met holds the telemetry handles (all nil when telemetry is
	// disabled); reg is the registry /metricsz renders. The counters
	// that used to be hand-rolled atomics here now live in the
	// registry, and /statsz reads them back through met.
	met *serverMetrics
	reg *telemetry.Registry

	log    *slog.Logger
	reqSeq atomic.Int64

	// runCells is the sweep entry point, a field so tests can substitute
	// a hostile implementation (the production value is
	// scenario.RunCells).
	runCells func(name string, cells []scenario.Cell, opts scenario.RunOptions) (*scenario.SweepResult, error)

	baseCtx    context.Context
	baseCancel context.CancelFunc
	runnerDone chan struct{}
	started    time.Time
}

// New opens the store (running its recovery scan) and starts the job
// runner. Callers own the HTTP listener; see Handler.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	store, err := OpenStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	// The startup sweep: enforce the size cap against whatever survived
	// the recovery scan before serving anything.
	if err := store.SetMaxBytes(cfg.StoreMaxBytes); err != nil {
		return nil, fmt.Errorf("serve: store eviction sweep: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Metrics
	if reg == nil && !cfg.DisableTelemetry {
		reg = telemetry.NewRegistry()
	}
	logger := cfg.Log
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:        cfg,
		store:      store,
		quotas:     NewQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		jobs:       make(map[string]*job),
		queue:      make(chan *job, cfg.QueueDepth),
		runCells:   scenario.RunCells,
		met:        newServerMetrics(reg),
		reg:        reg,
		log:        logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		runnerDone: make(chan struct{}),
		started:    time.Now(),
	}
	registerServerGauges(reg, s)
	s.shedding.Store(cfg.Shed)
	go s.runner()
	return s, nil
}

// Metrics exposes the telemetry registry (nil when telemetry is
// disabled) so embedders can add their own metrics to the same
// /metricsz page.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Store exposes the underlying result store (tests, tooling).
func (s *Server) Store() *Store { return s.store }

// SetShedding toggles load-shedding mode: compute submissions are
// rejected with 429 while cache hits keep being served.
func (s *Server) SetShedding(on bool) { s.shedding.Store(on) }

// Close stops the server immediately: in-flight work is cancelled and
// the runner drained. Use Drain for the graceful version.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.baseCancel()
	<-s.runnerDone
	return nil
}

// Drain is the graceful shutdown: new submissions are refused (503),
// queued and running jobs keep going until done or ctx (the drain
// deadline) fires, at which point the rest are cancelled. It returns
// nil when everything finished, or the context error when the
// deadline cut work short.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for len(s.queue) > 0 || s.jobActive.Load() {
		select {
		case <-ctx.Done():
			s.baseCancel()
			<-s.runnerDone
			return ctx.Err()
		case <-tick.C:
		}
	}
	s.baseCancel()
	<-s.runnerDone
	return nil
}

// runner executes queued jobs one at a time. Cells inside a job run on
// the sweep worker pool; the single-runner discipline makes the queue
// depth the real backpressure bound.
func (s *Server) runner() {
	defer close(s.runnerDone)
	for {
		select {
		case <-s.baseCtx.Done():
			// Cancelled shutdown: fail the rest of the queue explicitly.
			for {
				select {
				case j := <-s.queue:
					s.finishJob(j, JobCanceled, "server shutting down", "")
				default:
					return
				}
			}
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// jobWork is a job's payload: the expanded cells and their
// fingerprints in expansion order.
type jobWork struct {
	cells []scenario.Cell
	fps   []string
}

// enqueue admits a job to the bounded queue. false means shed.
func (s *Server) enqueue(j *job) bool {
	select {
	case s.queue <- j:
		return true
	default:
		return false
	}
}

// finishJob moves a job to a terminal state and emits the matching
// event.
func (s *Server) finishJob(j *job, state JobState, errMsg, dump string) {
	kind := map[JobState]string{JobDone: "done", JobFailed: "failed", JobCanceled: "canceled"}[state]
	cinc(s.met.jobsFinished.WithLabel(kind))
	j.update(func(v *JobView) {
		v.State = state
		v.Finished = time.Now().UTC()
		if errMsg != "" {
			v.Err = errMsg
		}
		if dump != "" && v.Dump == "" {
			v.Dump = dump
		}
	})
	j.emit(JobEvent{Kind: kind, Err: errMsg})
	v := j.View()
	s.log.Info("job finished",
		"job", v.ID, "state", kind, "cells", v.Cells, "cache_hits", v.CacheHits,
		"failed_cells", v.FailedCells, "err", errMsg)
}

// runJob executes one admitted job: answer cached cells from the
// store (repairing corrupt records by recomputing them), run the rest
// on the worker pool under the job budget, and persist every fresh
// result. A panic anywhere in the job machinery is contained into a
// failed-job record — the daemon itself must survive any submission.
func (s *Server) runJob(j *job) {
	s.jobActive.Store(true)
	defer s.jobActive.Store(false)
	if j.state() != JobQueued { // cancelled while queued
		return
	}

	// The queue span covers admission to run start; the run span covers
	// everything from here to the terminal state. Both are recorded
	// before the terminal state is published, so a client woken by it
	// already sees them.
	runStart := time.Now()
	finish := func(state JobState, errMsg, dump string) {
		j.recordSpan("job", "run", runStart, time.Now(), string(state))
		hsince(s.met.runDur, runStart)
		s.finishJob(j, state, errMsg, dump)
	}
	defer func() {
		if r := recover(); r != nil {
			cinc(s.met.faultedCells)
			finish(JobFailed, fmt.Sprintf("job panicked: %v", r), string(debug.Stack()))
		}
	}()
	j.recordSpan("job", "queue", j.epoch, runStart, "")
	hsince(s.met.queueWait, j.epoch)

	ctx, cancel := context.WithTimeout(s.baseCtx, j.budget)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	work := j.work
	captureTrace := j.captureTrace
	j.mu.Unlock()

	j.update(func(v *JobView) {
		v.State = JobRunning
		v.Started = time.Now().UTC()
	})
	j.emit(JobEvent{Kind: "started"})

	// Pass 1: serve cache hits, collect misses (including corrupt
	// records, which recompute-and-repair).
	var misses []scenario.Cell
	for i, cell := range work.cells {
		fp := work.fps[i]
		if _, err := s.getRecord(fp); err == nil {
			cinc(s.met.cacheHitCells)
			j.markSpan("cells", "cache-hit", time.Now(), fp)
			j.update(func(v *JobView) { v.DoneCells++; v.CacheHits++ })
			j.emit(JobEvent{Kind: "cell", Cell: cell.Name, Fingerprint: fp, Cached: true})
			continue
		}
		misses = append(misses, cell)
	}

	if len(misses) > 0 {
		opts := scenario.RunOptions{
			Workers: s.cfg.Workers,
			Ctx:     ctx,
			Guard:   true,
			CellDone: func(cr scenario.CellResult) {
				s.onCellDone(j, cr)
			},
		}
		if captureTrace {
			// Retain the sim event stream of traced jobs for the
			// combined service+sim Perfetto export. Only specs that
			// enabled obs streaming (spec.obs.stream) carry events.
			opts.ResultDone = func(cr scenario.CellResult, rr *scenario.RunResult) {
				if cr.Err != "" || rr == nil || rr.Machine == nil {
					return
				}
				j.addSimEvents(rr.Machine.Sink().Stream())
			}
		}
		_, err := s.runCells(j.view.Name, misses, opts)
		if err != nil {
			// Context cancellation: budget exhausted or shutdown/cancel.
			state, msg := JobCanceled, "job canceled"
			if errors.Is(err, context.DeadlineExceeded) {
				state, msg = JobFailed, fmt.Sprintf("job budget %s exceeded", j.budget)
			}
			finish(state, msg, "")
			return
		}
	}

	v := j.View()
	if v.FailedCells > 0 {
		finish(JobFailed, fmt.Sprintf("%d/%d cells failed: %s", v.FailedCells, v.Cells, firstCellError(j)), "")
		return
	}
	finish(JobDone, "", "")
}

// firstCellError digs the first failed cell's message out of the event
// history for the job-level error summary.
func firstCellError(j *job) string {
	evs, _ := j.eventsSince(0)
	for _, ev := range evs {
		if ev.Kind == "cell" && ev.Err != "" {
			return ev.Err
		}
	}
	return "unknown cell error"
}

// onCellDone persists one freshly computed cell and advances the job
// record. Persisted bytes are cross-checked against any existing
// record: equal fingerprints must mean equal bytes, and a violation is
// counted as a determinism mismatch (and the store keeps the fresh
// bytes).
func (s *Server) onCellDone(j *job, cr scenario.CellResult) {
	if cr.Err != "" {
		cinc(s.met.faultedCells)
		j.markSpan("cells", "cell-failed", time.Now(), cr.Name)
		j.update(func(v *JobView) {
			v.DoneCells++
			v.FailedCells++
			if cr.Dump != "" && v.Dump == "" {
				v.Dump = cr.Dump
			}
		})
		j.emit(JobEvent{Kind: "cell", Cell: cr.Name, Fingerprint: cr.Fingerprint, Err: cr.Err})
		return
	}

	payload, err := encodeResult(cr)
	if err == nil && ValidFingerprint(cr.Fingerprint) {
		if old, gerr := s.store.Get(cr.Fingerprint); gerr == nil && !bytes.Equal(old, payload) {
			cinc(s.met.mismatches)
		}
		putStart := time.Now()
		if perr := s.store.Put(cr.Fingerprint, payload); perr == nil {
			hsince(s.met.storePut, putStart)
			j.recordSpan("store", "put", putStart, time.Now(), cr.Fingerprint)
			if _, pending := s.repairPending.LoadAndDelete(cr.Fingerprint); pending {
				cinc(s.met.repairedCells)
			}
		}
	}
	cinc(s.met.computedCells)
	j.markSpan("cells", "cell-done", time.Now(), cr.Fingerprint)
	j.update(func(v *JobView) { v.DoneCells++ })
	j.emit(JobEvent{Kind: "cell", Cell: cr.Name, Fingerprint: cr.Fingerprint})
}

// getRecord reads a fingerprint through the store, remembering corrupt
// records (already quarantined by the store) so their eventual
// recompute is counted as a repair.
func (s *Server) getRecord(fp string) ([]byte, error) {
	payload, err := s.store.Get(fp)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			s.repairPending.Store(fp, true)
		}
	}
	return payload, err
}

// encodeResult canonicalizes a cell result for storage: the dump (a
// fault artifact, never present on a successful cell) and any
// transient fields are stripped so the stored bytes are a pure
// function of the fingerprint.
func encodeResult(cr scenario.CellResult) ([]byte, error) {
	stored := scenario.CellResult{
		Name:        cr.Name,
		Fingerprint: cr.Fingerprint,
		Spec:        cr.Spec,
		Summary:     cr.Summary,
		Violations:  cr.Violations,
	}
	return json.Marshal(stored)
}

// --- HTTP layer ---

// Handler returns the daemon's HTTP mux, wrapped in the structured
// request log / request-ID middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/specs", s.handleSpec)
	mux.HandleFunc("POST /v1/grids", s.handleGrid)
	mux.HandleFunc("GET /v1/results/{fp}", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return s.logRequests(mux)
}

// statusWriter captures the response status for the request log. It
// passes Flush through so NDJSON streaming keeps working behind the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests assigns each request an id (honoring a short inbound
// X-Request-ID), echoes it in the response, and logs one structured
// line per request — the slog path that replaced ad-hoc prints.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" || len(rid) > 64 {
			rid = fmt.Sprintf("r%08d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", rid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Info("request",
			"id", rid, "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "client", clientID(r),
			"dur_ms", float64(time.Since(start))/float64(time.Millisecond))
	})
}

// handleMetricsz serves the Prometheus text exposition of the
// telemetry registry.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		httpError(w, http.StatusNotFound, "telemetry disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: one Perfetto document
// with the job's service spans on top and, for jobs submitted with
// ?trace=1 and an event-streaming spec, the sim events below them.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteServiceTrace(w, j.spanList(), j.simEventList())
}

// clientID identifies the caller for quota accounting: the first of
// X-Client-ID, X-API-Key, and the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if id := r.Header.Get("X-API-Key"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shedError writes the 429 + Retry-After shed response.
func shedError(w http.ResponseWriter, retryAfter time.Duration, why string) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, http.StatusTooManyRequests, "%s", why)
}

// shed charges one shed submission to the global and per-client
// counters.
func (s *Server) shed(r *http.Request) {
	cinc(s.met.shed)
	cinc(s.met.clientShed.WithLabel(clientID(r)))
}

// admit runs the shared admission checks for compute submissions:
// drain refusal, per-client quota, shed mode. It reports whether the
// request may proceed to the queue (and has already written the
// response when not).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	if ok, retry := s.quotas.Allow(clientID(r)); !ok {
		cinc(s.met.quotaRejected)
		cinc(s.met.clientQuota.WithLabel(clientID(r)))
		shedError(w, retry, "client quota exhausted")
		return false
	}
	return true
}

// budgetFor resolves the job budget: ?budget_ms= clamped to
// [1s, MaxJobBudget], defaulting to JobBudget.
func (s *Server) budgetFor(r *http.Request) time.Duration {
	b := s.cfg.JobBudget
	if q := r.URL.Query().Get("budget_ms"); q != "" {
		if ms, err := strconv.Atoi(q); err == nil && ms > 0 {
			b = time.Duration(ms) * time.Millisecond
		}
	}
	if b < 50*time.Millisecond {
		b = 50 * time.Millisecond
	}
	if b > s.cfg.MaxJobBudget {
		b = s.cfg.MaxJobBudget
	}
	return b
}

// newJobRecord registers a job in the table, evicting the oldest
// terminal jobs past the cap.
func (s *Server) newJobRecord(kind, name, client string, work jobWork, budget time.Duration) *job {
	id := fmt.Sprintf("j%06d", s.jobSeq.Add(1))
	j := newJob(JobView{
		ID:      id,
		Kind:    kind,
		Name:    name,
		State:   JobQueued,
		Client:  client,
		Created: time.Now().UTC(),
		Cells:   len(work.cells),
	}, budget)
	j.work = work
	j.view.Fingerprints = append([]string(nil), work.fps...)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[id] = j
	s.jobOrder = append(s.jobOrder, id)
	if len(s.jobOrder) > maxJobs {
		kept := s.jobOrder[:0]
		for _, jid := range s.jobOrder {
			if old := s.jobs[jid]; old != nil && old.state().Terminal() && len(s.jobs) > maxJobs {
				delete(s.jobs, jid)
				continue
			}
			kept = append(kept, jid)
		}
		s.jobOrder = kept
	}
	j.emit(JobEvent{Kind: "queued"})
	return j
}

// lookupJob finds a job by id.
func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// submitResponse is the 202 body for admitted compute jobs.
type submitResponse struct {
	Job          string   `json:"job"`
	Cells        int      `json:"cells"`
	CachedCells  int      `json:"cached_cells"`
	Fingerprints []string `json:"fingerprints"`
}

// specResponse is the 200 body for a cache-answered spec submission.
type specResponse struct {
	Fingerprint string          `json:"fingerprint"`
	Cached      bool            `json:"cached"`
	Result      json.RawMessage `json:"result"`
}

// handleSpec answers POST /v1/specs: a single-Spec submission. Cache
// hits return immediately with the stored result; misses are admitted
// to the queue (or shed). ?wait=1 blocks until the job finishes and
// returns the result inline.
func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	cinc(s.met.submissions)
	cinc(s.met.clientSubmits.WithLabel(clientID(r)))
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	norm := *spec
	if err := norm.Normalize(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, err := norm.Fingerprint()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// An unnamed spec is named after its content. The name is part of
	// the fingerprint, so the record is keyed by the named spec's.
	if norm.Name == "" {
		norm.Name = "spec-" + fp
		if fp, err = norm.Fingerprint(); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	// Cache hits are served even while shedding or over quota: they
	// cost a disk read, not a simulation.
	if payload, err := s.getRecord(fp); err == nil {
		cinc(s.met.cacheHitCells)
		writeJSON(w, http.StatusOK, specResponse{Fingerprint: fp, Cached: true, Result: payload})
		return
	}

	if !s.admit(w, r) {
		return
	}
	if s.shedding.Load() {
		s.shed(r)
		shedError(w, 5*time.Second, "load shedding: compute submissions rejected")
		return
	}
	work := jobWork{cells: []scenario.Cell{{Name: norm.Name, Spec: norm}}, fps: []string{fp}}
	j := s.newJobRecord("spec", norm.Name, clientID(r), work, s.budgetFor(r))
	j.setCaptureTrace(r.URL.Query().Get("trace") != "")
	if !s.enqueue(j) {
		s.dropJob(j)
		s.shed(r)
		shedError(w, 2*time.Second, "submission queue full")
		return
	}

	if r.URL.Query().Get("wait") != "" {
		s.waitAndReply(w, r, j, fp)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{Job: j.view.ID, Cells: 1, Fingerprints: []string{fp}})
}

// dropJob removes a job that was never admitted to the queue.
func (s *Server) dropJob(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.view.ID)
	for i, id := range s.jobOrder {
		if id == j.view.ID {
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			break
		}
	}
}

// waitAndReply blocks until the job is terminal, then serves the
// result (for single-spec jobs) or the job record.
func (s *Server) waitAndReply(w http.ResponseWriter, r *http.Request, j *job, fp string) {
	var after int64
	for {
		evs, terminal := j.waitEvents(after, r.Context().Done())
		for _, ev := range evs {
			after = ev.Seq
		}
		if terminal {
			break
		}
		if r.Context().Err() != nil {
			httpError(w, http.StatusRequestTimeout, "client gave up waiting")
			return
		}
	}
	v := j.View()
	if v.State == JobDone {
		if payload, err := s.store.Get(fp); err == nil {
			writeJSON(w, http.StatusOK, specResponse{Fingerprint: fp, Cached: false, Result: payload})
			return
		}
	}
	writeJSON(w, http.StatusInternalServerError, v)
}

// handleGrid answers POST /v1/grids: expand, fingerprint every cell,
// serve all-cached grids immediately, admit the rest to the queue.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	cinc(s.met.submissions)
	cinc(s.met.clientSubmits.WithLabel(clientID(r)))
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	grid, err := scenario.ParseGrid(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells, err := grid.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(cells) == 0 {
		httpError(w, http.StatusBadRequest, "grid expands to no cells")
		return
	}
	if len(cells) > s.cfg.MaxCells {
		httpError(w, http.StatusRequestEntityTooLarge, "grid expands to %d cells; cap is %d", len(cells), s.cfg.MaxCells)
		return
	}
	fps := make([]string, len(cells))
	cached := 0
	for i, c := range cells {
		fp, err := c.Spec.Fingerprint()
		if err != nil {
			httpError(w, http.StatusBadRequest, "cell %s: %v", c.Name, err)
			return
		}
		fps[i] = fp
		if s.store.Has(fp) {
			cached++
		}
	}

	// A fully cached grid is assembled from the store without touching
	// the queue — the "sweeps become cache hits" path. Any corrupt
	// record discovered here downgrades to a compute submission.
	if cached == len(cells) {
		if res, ok := s.assembleCached(grid.Name, cells, fps); ok {
			cadd(s.met.cacheHitCells, int64(len(cells)))
			writeJSON(w, http.StatusOK, map[string]any{"cached": true, "sweep": res})
			return
		}
	}

	if !s.admit(w, r) {
		return
	}
	if s.shedding.Load() {
		s.shed(r)
		shedError(w, 5*time.Second, "load shedding: compute submissions rejected")
		return
	}
	name := grid.Name
	if name == "" {
		name = "grid"
	}
	j := s.newJobRecord("grid", name, clientID(r), jobWork{cells: cells, fps: fps}, s.budgetFor(r))
	j.setCaptureTrace(r.URL.Query().Get("trace") != "")
	if !s.enqueue(j) {
		s.dropJob(j)
		s.shed(r)
		shedError(w, 2*time.Second, "submission queue full")
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		Job: j.view.ID, Cells: len(cells), CachedCells: cached, Fingerprints: fps,
	})
}

// assembleCached builds a SweepResult from stored records. false when
// any record is missing or corrupt (the caller then queues a compute
// job, which repairs).
func (s *Server) assembleCached(name string, cells []scenario.Cell, fps []string) (*scenario.SweepResult, bool) {
	res := &scenario.SweepResult{Name: name, Cells: make([]scenario.CellResult, len(cells))}
	for i, fp := range fps {
		payload, err := s.getRecord(fp)
		if err != nil {
			return nil, false
		}
		var cr scenario.CellResult
		if err := json.Unmarshal(payload, &cr); err != nil {
			return nil, false
		}
		res.Cells[i] = cr
	}
	return res, true
}

// handleResult serves GET /v1/results/{fp}: the stored, verified
// record bytes. Corruption quarantines and 404s — bad bytes are never
// served; resubmitting the spec recomputes and repairs.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !ValidFingerprint(fp) {
		httpError(w, http.StatusBadRequest, "malformed fingerprint %q", fp)
		return
	}
	payload, err := s.getRecord(fp)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			httpError(w, http.StatusNotFound, "stored result was corrupt and has been quarantined; resubmit the spec to recompute")
			return
		}
		if errors.Is(err, ErrNotFound) {
			httpError(w, http.StatusNotFound, "no result for fingerprint %s", fp)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleJobEvents streams a job's progress as NDJSON until the job is
// terminal or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	streamStart := time.Now()
	defer func() { j.recordSpan("stream", "events", streamStart, time.Now(), "") }()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var after int64
	for {
		evs, terminal := j.waitEvents(after, r.Context().Done())
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
			after = ev.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal || r.Context().Err() != nil {
			return
		}
	}
}

// handleJobCancel answers DELETE /v1/jobs/{id}.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state := j.view.State
	cancel := j.cancel
	j.mu.Unlock()
	switch state {
	case JobQueued:
		s.finishJob(j, JobCanceled, "canceled by client", "")
	case JobRunning:
		if cancel != nil {
			cancel()
		}
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleHealthz reports liveness; a draining server answers 503 so
// load balancers stop routing to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// StatsView is the /statsz payload.
type StatsView struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Draining      bool           `json:"draining"`
	Shedding      bool           `json:"shedding"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCap      int            `json:"queue_cap"`
	JobActive     bool           `json:"job_active"`
	JobStates     map[string]int `json:"job_states"`
	Submissions   int64          `json:"submissions"`
	Shed          int64          `json:"shed"`
	QuotaRejected int64          `json:"quota_rejected"`
	QuotaClients  int            `json:"quota_clients"`
	CacheHitCells int64          `json:"cache_hit_cells"`
	ComputedCells int64          `json:"computed_cells"`
	FaultedCells  int64          `json:"faulted_cells"`
	RepairedCells int64          `json:"repaired_cells"`
	// DeterminismMismatches counts stored-vs-recomputed byte
	// divergences — always zero unless the determinism contract broke.
	DeterminismMismatches int64      `json:"determinism_mismatches"`
	HitRatio              float64    `json:"hit_ratio"`
	Store                 StoreStats `json:"store"`
}

// Stats snapshots the server counters (also the /statsz body).
func (s *Server) Stats() StatsView {
	states := map[string]int{}
	s.mu.Lock()
	ids := append([]string(nil), s.jobOrder...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	for _, j := range jobs {
		states[string(j.state())]++
	}
	// The counter fields are Value() reads over the telemetry registry
	// — /statsz is a JSON view over the same source of truth /metricsz
	// renders (zero when telemetry is disabled).
	hits, computed := s.met.cacheHitCells.Value(), s.met.computedCells.Value()
	ratio := 0.0
	if hits+computed > 0 {
		ratio = float64(hits) / float64(hits+computed)
	}
	return StatsView{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.draining.Load(),
		Shedding:      s.shedding.Load(),
		QueueDepth:    len(s.queue),
		QueueCap:      cap(s.queue),
		JobActive:     s.jobActive.Load(),
		JobStates:     states,
		Submissions:   s.met.submissions.Value(),
		Shed:          s.met.shed.Value(),
		QuotaRejected: s.met.quotaRejected.Value(),
		QuotaClients:  s.quotas.Clients(),
		CacheHitCells: hits,
		ComputedCells: computed,
		FaultedCells:  s.met.faultedCells.Value(),
		RepairedCells: s.met.repairedCells.Value(),

		DeterminismMismatches: s.met.mismatches.Value(),
		HitRatio:              ratio,
		Store:                 s.store.Stats(),
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// writeJSON writes v as a JSON response. Deliberately not indented:
// embedded json.RawMessage result bytes must pass through unchanged so
// API responses stay byte-identical to the stored records.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
