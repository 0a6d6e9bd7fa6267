package main

import (
	"bufio"
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vmp/internal/scenario"
	"vmp/internal/serve"
)

// gridFiles are copies of the repository's scenarios/*-grid.json: the
// grids that vmpbench -sweep <grid> -remote, vmpd's only client in the
// repository, submits, and that the daemon's CI job sends it. They are
// copies so that an edit to scenarios/ cannot change what serve-mixed
// measures between two commits.
//
//go:embed grids/*.json
var gridFiles embed.FS

// grid is one grid a session submits, and the short name its per-layer
// metrics carry (the file name less "-grid.json").
type grid struct {
	Short string
	Grid  scenario.Grid
}

// loadGrids parses the embedded grids, in file-name order.
func loadGrids() []grid {
	entries, err := gridFiles.ReadDir("grids")
	if err != nil {
		panic(err)
	}
	var out []grid
	for _, e := range entries {
		b, err := gridFiles.ReadFile("grids/" + e.Name())
		if err != nil {
			panic(err)
		}
		g, err := scenario.ParseGrid(b)
		if err != nil {
			panic(fmt.Sprintf("grids/%s: %v", e.Name(), err))
		}
		out = append(out, grid{Short: strings.TrimSuffix(e.Name(), "-grid.json"), Grid: *g})
	}
	return out
}

// daemon is an in-process vmpd, served over loopback HTTP.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tp     *http.Transport
	client *serve.Client
}

// startDaemon starts vmpd on the store in storeDir and returns once it
// answers /healthz. The quota is raised so that admission never sheds;
// every other setting is vmpd's default.
func startDaemon(ctx context.Context, storeDir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{StoreDir: storeDir, QuotaRate: 1e9, QuotaBurst: 1e9})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close())
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		tp:     &http.Transport{},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.tp}}
	if !d.client.Healthy(ctx) {
		return nil, errors.Join(errors.New("vmpd does not answer /healthz"), d.stop())
	}
	return d, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
// The store stays.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.tp.CloseIdleConnections()
	return errors.Join(err, d.srv.Close())
}

// restartRecords is how many result records the store holds that
// setup_s restarts vmpd on.
const restartRecords = 512

// restartSeconds is setup_s for serve-mixed: vmpd's start on a store
// that already holds restartRecords records, from opening the store,
// whose recovery scan visits every record, until /healthz answers; the
// median over serveSetupReps restarts. The records are copies of the
// ones under fps in src, each under a fingerprint of its own, in a new
// store in dir.
func restartSeconds(ctx context.Context, src *serve.Store, fps []string, dir string) (float64, int, error) {
	st, err := serve.OpenStore(dir)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < restartRecords; i++ {
		b, err := src.Get(fps[i%len(fps)])
		if err != nil {
			return 0, 0, err
		}
		if err := st.Put(fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15), b); err != nil {
			return 0, 0, err
		}
	}
	var xs []float64
	for i := 0; i < serveSetupReps; i++ {
		start := time.Now()
		d, err := startDaemon(ctx, dir)
		if err != nil {
			return 0, 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
		if err := d.stop(); err != nil {
			return 0, 0, err
		}
	}
	return median(xs), len(xs), nil
}

// submission is one grid submission of a session.
type submission struct {
	Grid  string
	Cold  bool
	Cells int
	MS    float64
}

// session is what one session measured.
type session struct {
	subs    []submission
	seconds float64
	allocMB float64
	rssMB   float64
	// fps are the fingerprints of the cells it computed.
	fps []string
}

// cells is how many cells the session's submissions answered.
func (s session) cells() int {
	n := 0
	for _, sub := range s.subs {
		n += sub.Cells
	}
	return n
}

// session submits every grid of the workload, with the grid's base seed
// set to seed so that no session reuses another's results, the way a
// vmpd user runs vmpbench -sweep <grid> -remote twice: first cold, and
// then again warm, when the daemon must answer the whole sweep from its
// store. Every reply is checked, and the first failure ends the
// session. It starts from a collected heap, so that its allocation and
// peak memory are its own. A non-nil tr records a span per submission
// under run.
func (d *daemon) session(ctx context.Context, w workload, seed uint64, tr *tracer, run int) (session, error) {
	var s session
	var ms runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	start := time.Now()
	for _, g := range w.Grids {
		gr := g.Grid
		gr.Base.Seed = seed
		cells, err := gr.Expand()
		if err != nil {
			return s, err
		}
		var cold []*scenario.CellResult
		t0 := time.Now()
		err = tr.span("serve", "cold."+g.Short, run, func() (err error) {
			cold, err = d.submitCold(ctx, gr, cells)
			return err
		})
		t1 := time.Now()
		if err == nil {
			err = tr.span("serve", "warm."+g.Short, run, func() error { return d.submitWarm(ctx, gr, cold) })
		}
		t2 := time.Now()
		if err != nil {
			return s, fmt.Errorf("%s seed %d: %w", g.Short, seed, err)
		}
		s.subs = append(s.subs,
			submission{Grid: g.Short, Cold: true, Cells: len(cells), MS: msBetween(t0, t1)},
			submission{Grid: g.Short, Cold: false, Cells: len(cells), MS: msBetween(t1, t2)})
		for _, cr := range cold {
			s.fps = append(s.fps, cr.Fingerprint)
		}
	}
	s.seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	s.allocMB = float64(ms.TotalAlloc-before) / (1 << 20)
	s.rssMB = peakRSSMB()
	return s, nil
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// submitCold submits a grid the daemon has not seen and follows it as
// vmpbench -sweep -remote does: the NDJSON event stream, WaitJob, then
// each cell's stored record by fingerprint. Every cell must be computed
// and clean; the records come back in cell order.
func (d *daemon) submitCold(ctx context.Context, g scenario.Grid, cells []scenario.Cell) ([]*scenario.CellResult, error) {
	sub, err := d.client.SubmitGrid(ctx, g)
	if err != nil {
		return nil, err
	}
	if sub.Sweep != nil {
		return nil, errors.New("first submission was answered from the store")
	}
	if len(sub.Fingerprints) != len(cells) {
		return nil, fmt.Errorf("job %s has %d cells, the grid %d", sub.Job, len(sub.Fingerprints), len(cells))
	}
	computed := 0
	var evErr error
	err = d.client.Events(ctx, sub.Job, func(ev serve.JobEvent) {
		switch {
		case ev.Kind != "cell":
		case ev.Err != "":
			evErr = errors.Join(evErr, fmt.Errorf("cell %s: %s", ev.Cell, ev.Err))
		case ev.Cached:
			evErr = errors.Join(evErr, fmt.Errorf("cell %s was cached on its first submission", ev.Cell))
		default:
			computed++
		}
	})
	if err = errors.Join(err, evErr); err != nil {
		return nil, err
	}
	v, err := d.client.WaitJob(ctx, sub.Job)
	if err != nil {
		return nil, err
	}
	if v.State != serve.JobDone {
		return nil, fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Err)
	}
	if computed != len(cells) {
		return nil, fmt.Errorf("job %s streamed %d computed cells, want %d", sub.Job, computed, len(cells))
	}
	out := make([]*scenario.CellResult, len(cells))
	for i, fp := range sub.Fingerprints {
		if out[i], err = d.client.CellResult(ctx, fp); err != nil {
			return nil, err
		}
		if err := checkCell(cells[i], fp, out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// submitWarm resubmits a grid whose cells are all stored. The daemon
// must answer it at once with the whole sweep, each cell the same
// record the cold submission computed.
func (d *daemon) submitWarm(ctx context.Context, g scenario.Grid, cold []*scenario.CellResult) error {
	sub, err := d.client.SubmitGrid(ctx, g)
	if err != nil {
		return err
	}
	if sub.Sweep == nil {
		return fmt.Errorf("resubmission became job %s instead of a cache hit", sub.Job)
	}
	if len(sub.Sweep.Cells) != len(cold) {
		return fmt.Errorf("cached sweep has %d cells, want %d", len(sub.Sweep.Cells), len(cold))
	}
	for i, want := range cold {
		a, err := json.Marshal(want)
		if err != nil {
			return err
		}
		b, err := json.Marshal(sub.Sweep.Cells[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("cell %s: cached record differs from the computed one", want.Name)
		}
	}
	return nil
}

// checkCell accepts a computed cell: the daemon answered with the
// cell's own fingerprint, and stored a clean run of the requested size
// under it.
func checkCell(c scenario.Cell, fp string, cr *scenario.CellResult) error {
	want, err := c.Spec.Fingerprint()
	if err != nil {
		return err
	}
	refs := uint64(c.Spec.Machine.Processors * c.Spec.Workload.Refs)
	switch {
	case fp != want:
		return fmt.Errorf("cell %s answered as %s, its fingerprint is %s", c.Name, fp, want)
	case cr.Err != "":
		return fmt.Errorf("cell %s: %s", c.Name, cr.Err)
	case len(cr.Violations) > 0:
		return fmt.Errorf("cell %s: %d violations", c.Name, len(cr.Violations))
	case cr.Fingerprint != fp:
		return fmt.Errorf("cell %s: stored under %s, answered as %s", c.Name, cr.Fingerprint, fp)
	case cr.Summary.Refs != refs:
		return fmt.Errorf("cell %s: %d refs simulated, want %d", c.Name, cr.Summary.Refs, refs)
	}
	return nil
}

// sessions runs sessions on seeds seed, seed+1, ... until o's measuring
// time or MaxOps is spent, and at least min of them, recording each as
// an operation. It returns the sessions that succeeded and the next
// unused seed. A non-nil tr records their spans.
func (d *daemon) sessions(ctx context.Context, w workload, o options, seed uint64, min int, tr *tracer, r *report) ([]session, uint64) {
	var out []session
	start := time.Now()
	for n := 0; !o.timedDone(start, n, min); n++ {
		s, err := d.session(ctx, w, seed, tr, serveRun+int(seed))
		seed++
		r.op(err)
		if err == nil {
			out = append(out, s)
		}
	}
	return out, seed
}

// serveRun offsets the trace run ids of sessions from those of the
// staged simulation runs.
const serveRun = 1_000_000

// runServe measures serve-mixed with tracing off: one untimed warm-up
// session at Seed on a daemon with a fresh store, setup_s from restarts
// on a populated store, then timed sessions at Seed+1, Seed+2, ... on
// the first daemon.
func runServe(ctx context.Context, w workload, o options, r *report) error {
	dir, err := os.MkdirTemp(o.WorkDir, "vmpd-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(ctx, filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	warm, err := d.session(ctx, w, o.Seed, nil, 0)
	r.op(err)
	var ss []session
	if err == nil {
		var setup float64
		var n int
		setup, n, err = restartSeconds(ctx, d.srv.Store(), warm.fps, filepath.Join(dir, "restart"))
		r.set("setup_s", setup, n)
		ss, _ = d.sessions(ctx, w, o, o.Seed+1, minTimedRuns, nil, r)
	}
	if err = errors.Join(err, d.stop()); err != nil {
		return err
	}
	if len(ss) == 0 {
		return fmt.Errorf("%s: no timed session succeeded", w.Name)
	}
	var rates, allocs, rss []float64
	for _, s := range ss {
		rates = append(rates, float64(s.cells())/s.seconds)
		allocs = append(allocs, s.allocMB)
		rss = append(rss, s.rssMB)
	}
	r.set("throughput", median(rates), len(rates))
	r.set("alloc_mb", median(allocs), len(allocs))
	r.set("rss_peak_mb", median(rss), len(rss))
	return nil
}

// scrapeMetrics reads the daemon's /metricsz exposition into a map from
// series name to value (histograms contribute their _sum and _count).
func (d *daemon) scrapeMetrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", d.client.BaseURL+"/metricsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metricsz: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
