package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"bbsched/internal/farm"
	"bbsched/internal/moo"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// gridSpec sizes the farm-grid workload: `traces` materialized workload
// recipes × methods × seeds cells, swept once by sim.RunSweep and once by
// a farm coordinator with GOMAXPROCS in-process workers over loopback
// HTTP. The methods are cheap on purpose, so that checkpoint encoding,
// the JSON/base64 wire and coordinator handling are a visible share.
type gridSpec struct {
	name             string
	traces           int
	jobs             int // per trace
	load             float64
	methods          []string
	seeds            int
	checkpointEvents int
}

// gridInput is a grid ready to run both ways.
type gridInput struct {
	grid      farm.Grid
	workloads []trace.Workload // the recipes, built: what RunSweep replays
}

func (sp gridSpec) cells() int { return sp.traces * len(sp.methods) * sp.seeds }

// setUp derives the grid from seed and builds its workloads. Farm workers
// rebuild them from the recipe per cell — that cost is the farm's own and
// stays inside its makespan.
func (sp gridSpec) setUp(seed uint64) (gridInput, error) {
	in := gridInput{grid: farm.Grid{
		Opts:             farm.RunOptions{Window: 20, StarvationBound: 50},
		CheckpointEvents: sp.checkpointEvents,
	}}
	for k := 0; k < sp.traces; k++ {
		sub := subSeed(seed, k)
		ws := farm.WorkloadSpec{
			Name:    fmt.Sprintf("Theta-S4-%d", k),
			Gen:     trace.GenConfig{System: thetaModel(), Jobs: sp.jobs, Seed: sub, TargetLoad: sp.load},
			Variant: "S4", VariantSeed: sub,
		}
		w, err := ws.Build()
		if err != nil {
			return in, err
		}
		in.grid.Workloads = append(in.grid.Workloads, ws)
		in.workloads = append(in.workloads, w)
	}
	for _, name := range sp.methods {
		in.grid.Methods = append(in.grid.Methods, farm.MethodSpec{Name: name, GA: moo.DefaultGAConfig()})
	}
	for i := 0; i < sp.seeds; i++ {
		in.grid.Seeds = append(in.grid.Seeds, subSeed(seed, 1000+i))
	}
	return in, in.grid.Validate()
}

// runRound sweeps the grid both ways and checks that the farm's assembled
// results equal RunSweep's bit for bit.
func (sp gridSpec) runRound(in gridInput, tr *tracer, ft faults) round {
	rd := round{attempts: sp.cells()}
	workers := runtime.GOMAXPROCS(0)

	want, sweepT, passes, err := sp.sweep(in, workers)
	if err != nil {
		rd.errs = append(rd.errs, fmt.Errorf("%s: RunSweep: %w", sp.name, err))
		return rd
	}
	rd.sweep = sweepT

	base := liveHeap()
	got, fr, err := sp.farm(in, workers, tr)
	if err != nil {
		rd.errs = append(rd.errs, fmt.Errorf("%s: farm: %w", sp.name, err))
		return rd
	}
	rd.timing = fr.timing
	rd.setPasses(passes)
	if fr.peak > base {
		rd.peakHeap = fr.peak - base
	}
	if ft.flipFarmBit {
		r := *got[0].Result
		r.NodeUsage = math.Float64frombits(math.Float64bits(r.NodeUsage) ^ 1)
		got[0].Result = &r
	}

	h := sha256.New()
	for i := range want {
		err := sameCell(got[i], want[i])
		if err == nil {
			err = rd.fold(got[i].Result, sp.jobs, len(want), h)
		}
		if err != nil {
			rd.errs = append(rd.errs, fmt.Errorf("%s cell %d: %w", sp.name, i, err))
		}
	}
	rd.digest = hexDigest(h)

	if tr != nil {
		rd.layers = fr.layers(sp, rd)
	}
	return rd
}

// sameCell is the farm==sweep check for one cell: identity and every
// deterministic field of the Result, floats to the last bit.
func sameCell(got, want sim.SweepRun) error {
	if got.Workload != want.Workload || got.Method != want.Method || got.Seed != want.Seed {
		return fmt.Errorf("farm ran %s/%s/%d where the sweep ran %s/%s/%d",
			got.Workload, got.Method, got.Seed, want.Workload, want.Method, want.Seed)
	}
	if got.Result == nil || want.Result == nil {
		return fmt.Errorf("%s/%s/%d did not complete (farm %v, sweep %v)",
			want.Workload, want.Method, want.Seed, got.Result != nil, want.Result != nil)
	}
	if g, w := resultDigest(got.Result), resultDigest(want.Result); g != w {
		return fmt.Errorf("%s/%s/%d: farm result %s differs from the sweep's %s",
			want.Workload, want.Method, want.Seed, g, w)
	}
	return nil
}

// pacedPasses is the observer of one sweep run: it keeps the run's pass
// latencies and paces the machine speed on the run's goroutine.
type pacedPasses struct {
	passRecorder
	pc *pacer
}

func (p *pacedPasses) OnSchedule(si sim.ScheduleInfo) {
	p.passRecorder.OnSchedule(si)
	p.pc.tick()
}

// sweep runs the grid through sim.RunSweep.
func (sp gridSpec) sweep(in gridInput, workers int) ([]sim.SweepRun, timing, []time.Duration, error) {
	opts, err := in.grid.Opts.Options()
	if err != nil {
		return nil, timing{}, nil, err
	}
	sw := sim.Sweep{Workloads: in.workloads, Seeds: in.grid.Seeds, Options: opts, Workers: workers}
	for _, ms := range in.grid.Methods {
		m, err := ms.Build(thetaModel().Cluster, "")
		if err != nil {
			return nil, timing{}, nil, err
		}
		sw.Methods = append(sw.Methods, m)
	}
	sec := beginSection()
	var mu sync.Mutex // PerRun is called from the sweep's workers
	var observers []*pacedPasses
	sw.PerRun = func(trace.Workload, sched.Method, uint64) []sim.Option {
		p := &pacedPasses{passRecorder: passRecorder{passes: new([]time.Duration)}, pc: sec.meter.pacer()}
		mu.Lock()
		observers = append(observers, p)
		mu.Unlock()
		return []sim.Option{sim.WithObserver(p)}
	}
	sec.meter.pacer().sample()
	runs, err := sim.RunSweep(context.Background(), sw)
	t := sec.end(workers)
	var passes []time.Duration
	for _, p := range observers {
		passes = append(passes, *p.passes...)
	}
	return runs, t, passes, err
}

// farmRun is what one farm pass measured.
type farmRun struct {
	timing
	peak  uint64
	stats farm.Stats
	wire  *wireStats // traced passes only
}

// farm runs the grid through a coordinator and `workers` in-process
// workers over loopback HTTP. The workers' StepHook paces the machine
// speed; a traced pass also wraps the coordinator's handler and the
// workers' transport.
func (sp gridSpec) farm(in gridInput, workers int, tr *tracer) ([]sim.SweepRun, farmRun, error) {
	var fr farmRun
	coord, err := farm.NewCoordinator(in.grid)
	if err != nil {
		return nil, fr, err
	}
	defer coord.Close()
	handler := coord.Handler()
	transport := &http.Transport{MaxIdleConnsPerHost: workers}
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	if tr != nil {
		tr.shared = true
		fr.wire = &wireStats{t: tr}
		handler = fr.wire.handler(handler)
		rt = &tracedTransport{rt: transport, t: tr}
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	sec := beginSection()
	sec.meter.pacer().sample()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var heap []uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		heap = watchLiveHeap(ctx)
	}()
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		pc, steps := sec.meter.pacer(), 0
		w := &farm.Worker{
			Coordinator: srv.URL, ID: fmt.Sprintf("w%d", i), Client: &http.Client{Transport: rt},
			StepHook: func(int, int) error {
				if steps++; steps%16 == 0 {
					pc.tick()
				}
				return nil
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	runs, err := coord.Wait(ctx)
	fr.timing = sec.end(workers)
	cancel()
	wg.Wait()
	sort.Slice(heap, func(i, j int) bool { return heap[i] < heap[j] })
	fr.peak = heap[len(heap)*9/10]
	fr.stats = coord.Stats()
	for _, werr := range errs {
		if err == nil && werr != nil && !errors.Is(werr, context.Canceled) {
			err = werr
		}
	}
	return runs, fr, err
}

// watchLiveHeap returns the live heap every collection left behind until
// ctx ends. A farm pass allocates checkpoints and JSON bodies fast enough
// to collect every few milliseconds, so polling what the runtime's own
// collections measured sees the heap's whole course and pauses nothing —
// forced collections at a Step cadence, the replays' method, would see a
// handful of random moments. The farm's peak is the 90th percentile of
// these: the maximum is set by whether two workers' uploads happen to be
// in flight during the same collection and swings by a quarter between
// identical passes, the 90th percentile by a hundredth.
func watchLiveHeap(ctx context.Context) []uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var seen []uint64
	for {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); len(seen) == 0 || seen[len(seen)-1] != v {
			seen = append(seen, v)
		}
		select {
		case <-ctx.Done():
			return seen
		case <-tick.C:
		}
	}
}

// wireStats wraps Coordinator.Handler(): per endpoint it counts requests
// and body bytes in both directions and times the handler.
type wireStats struct {
	t        *tracer
	mu       sync.Mutex
	up, down int64
	posts    map[string]int
}

func (ws *wireStats) handler(next http.Handler) http.Handler {
	ws.posts = make(map[string]int)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		if l, ok := pathLayer(r.URL.Path, layHandlerLease); ok {
			ws.t.timed(l, 0, 0, start, end)
		}
		ws.mu.Lock()
		ws.up += body.n
		ws.down += cw.n
		ws.posts[r.URL.Path]++
		ws.mu.Unlock()
	})
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// pathLayer maps a coordinator endpoint to its layer, counted from the
// first layer of the group (handler or round-trip).
func pathLayer(path string, first layer) (layer, bool) {
	for i, name := range []string{"/lease", "/checkpoint", "/result", "/fail"} {
		if strings.HasSuffix(path, name) {
			return first + layer(i), true
		}
	}
	return 0, false
}

// tracedTransport sits in Worker.Client and times every round trip as the
// worker sees it: request written, coordinator handling, headers back.
type tracedTransport struct {
	rt http.RoundTripper
	t  *tracer
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.rt.RoundTrip(r)
	if l, ok := pathLayer(r.URL.Path, layRTTLease); ok {
		tt.t.timed(l, 0, 0, start, time.Now())
	}
	return resp, err
}

// layers turns a traced farm pass into per-layer metrics.
func (fr farmRun) layers(sp gridSpec, rd round) layerValues {
	f, tr, ws := fr.factor, fr.wire.t, fr.wire
	cells := float64(sp.cells())
	v := layerValues{
		"farm.cells":                 cells,
		"farm.leases":                float64(ws.posts["/lease"]),
		"farm.checkpoints":           float64(ws.posts["/checkpoint"]),
		"farm.steals":                float64(fr.stats.Steals),
		"farm.retries":               float64(fr.stats.Retries),
		"farm.expired":               float64(fr.stats.Expired),
		"farm.upload_mb":             float64(ws.up) / 1e6,
		"farm.download_mb":           float64(ws.down) / 1e6,
		"farm.wire_mb_per_cell":      float64(ws.up+ws.down) / 1e6 / cells,
		"farm.handler_lease_s":       tr.seconds(layHandlerLease) * f,
		"farm.handler_checkpoint_s":  tr.seconds(layHandlerCheckpoint) * f,
		"farm.handler_result_s":      tr.seconds(layHandlerResult) * f,
		"farm.rtt_checkpoint_p50_ms": tr.percentileMs(layRTTCheckpoint, 0.50) * f,
		"farm.rtt_checkpoint_p99_ms": tr.percentileMs(layRTTCheckpoint, 0.99) * f,
		"farm.overhead_frac":         rd.wall/rd.sweep.wall - 1,
		"sim.sweep_jobs_per_s":       float64(rd.jobs) / rd.sweep.wall,
		"sim.decision_p99_ms":        rd.p99,
		"metrics.avg_wait_s":         rd.waitSec,
		"trace.wall_s":               rd.wall,
		"bench.speed_factor":         f,
	}
	return v
}
