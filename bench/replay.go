package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/rng"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// inputKind is how a replay's jobs reach the simulator.
type inputKind int

const (
	inMemory inputKind = iota // materialized: NewSimulator(workload, …)
	csvFile                   // CSV file → trace.OpenTrace → WithSource
	gzStream                  // generated stream → .csv.gz → OpenTrace → WithSource + streaming metrics
)

// replaySpec sizes one replay workload. A run replays `traces`
// independent traces, all derived from the run's seed: scheduling cost and
// schedule quality swing by ±10% from one generated trace to the next, and
// a metric summed over several traces swings that much less.
type replaySpec struct {
	name    string
	traces  int
	jobs    int     // per trace
	load    float64 // generator TargetLoad
	variant string  // trace.ApplyVariant name ("" = original)
	method  string  // registry method
	window  int
	input   inputKind
}

// heapEvery is the Step cadence of forced-GC live-heap samples.
const heapEvery = 25_000

// thetaModel is the machine every workload targets.
func thetaModel() trace.SystemModel { return trace.Scale(trace.Theta(), 32) }

// subSeed derives the k-th generator seed of a run.
func subSeed(seed uint64, k int) uint64 {
	return rng.New(seed).SplitIndex(uint64(k)).Uint64()
}

// replayInput is one generated trace, ready to replay.
type replayInput struct {
	w       trace.Workload // carries jobs only for inMemory
	path    string
	horizon int64 // last submit time, for csvFile
	seed    uint64
}

// setUp generates the spec's traces from seed, writing file-backed ones
// under dir.
func (sp replaySpec) setUp(dir string, seed uint64) ([]replayInput, error) {
	ins := make([]replayInput, sp.traces)
	for k := range ins {
		sub := subSeed(seed, k)
		cfg := trace.GenConfig{System: thetaModel(), Jobs: sp.jobs, Seed: sub, TargetLoad: sp.load}
		in := replayInput{seed: sub}
		if sp.input == gzStream {
			in.w = trace.Workload{Name: "Theta-stream", System: cfg.System}
			in.path = filepath.Join(dir, fmt.Sprintf("trace-%d.csv.gz", k))
			if err := writeTrace(in.path, trace.GenSource(cfg)); err != nil {
				return nil, err
			}
		} else {
			w, err := trace.ApplyVariant(trace.Generate(cfg), sp.variant, sub)
			if err != nil {
				return nil, err
			}
			in.w = w
			if sp.input == csvFile {
				in.path = filepath.Join(dir, fmt.Sprintf("trace-%d.csv", k))
				if err := writeTrace(in.path, trace.SourceOf(w)); err != nil {
					return nil, err
				}
				in.horizon = w.Jobs[len(w.Jobs)-1].SubmitTime
				in.w.Jobs = nil
			}
		}
		ins[k] = in
	}
	return ins, nil
}

// writeTrace drains src into a repository-format CSV file, gzipped when
// the name says so.
func writeTrace(path string, src trace.JobSource) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var out io.Writer = f
	var gz *gzip.Writer
	if filepath.Ext(path) == ".gz" {
		gz, _ = gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level: cannot fail
		out = gz
	}
	cw := trace.NewCSVWriter(out)
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = cw.Write(j)
		}
		if err != nil {
			f.Close()
			return err
		}
	}
	err = cw.Flush()
	if err == nil && gz != nil {
		err = gz.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayCounts are what a round's replays add up for its per-layer
// metrics.
type replayCounts struct {
	steps, forcedGCs       int
	loop                   time.Duration // Step loops' wall time, pauses excluded
	solveDims, solveFronts float64
}

// runRound replays every input once. passBuf is the caller's buffer for
// pass latencies, allocated before the heap baseline so that recording
// them does not count as the simulator's memory.
func (sp replaySpec) runRound(ins []replayInput, passBuf []time.Duration, tr *tracer, ft faults) round {
	rd := round{attempts: len(ins)}
	passes := passBuf[:0]
	var counts replayCounts
	var before, after runtime.MemStats
	base := liveHeap()
	runtime.ReadMemStats(&before)

	sec := beginSection()
	pc := sec.meter.pacer()
	pc.sample()
	h := sha256.New()
	for k, in := range ins {
		if tr != nil {
			tr.run = k
		}
		res, peak, err := sp.replayOne(in, pc, tr, ft, &passes, &counts, &rd.forms)
		if err == nil {
			err = rd.fold(res, sp.jobs, len(ins), h)
		}
		if err != nil {
			rd.errs = append(rd.errs, fmt.Errorf("%s trace %d: %w", sp.name, k, err))
			continue
		}
		if peak > base {
			rd.peakHeap = max(rd.peakHeap, peak-base)
		}
	}
	pc.sample()
	rd.timing = sec.end(1)
	rd.digest = hexDigest(h)
	rd.setPasses(passes)

	if tr != nil {
		runtime.ReadMemStats(&after)
		rd.layers = replayLayers(tr, rd, counts, float64(after.Mallocs-before.Mallocs), float64(after.NumGC-before.NumGC))
	}
	return rd
}

// replayOne drives one trace through a fresh Simulator with its own Step
// loop — the loop is where the pacer and the heap samples come from — and
// returns the result and the largest live heap sampled.
func (sp replaySpec) replayOne(in replayInput, pc *pacer, tr *tracer, ft faults,
	passes *[]time.Duration, counts *replayCounts, forms *[]solver.LinearForm) (*sim.Result, uint64, error) {
	m, err := registry.New(sp.method, moo.DefaultGAConfig(), false)
	if err != nil {
		return nil, 0, err
	}
	var obs sim.Observer = passRecorder{passes: passes}
	if tr != nil {
		obs = tracedPasses{passRecorder: passRecorder{passes: passes}, t: tr}
		var ts *tracedSolver
		if m, ts, err = traceMethod(m, tr); err != nil {
			return nil, 0, err
		}
		if ts != nil {
			defer func() {
				counts.solveDims += ts.dims
				counts.solveFronts += ts.fronts
				*forms = append(*forms, ts.forms...)
			}()
		}
	}

	start := time.Now()
	s, err := sp.newSimulator(in, m, tr, nil, sim.WithObserver(obs))
	if err != nil {
		return nil, 0, err
	}
	defer s.Close()
	if tr != nil {
		tr.timed(laySimNew, 0, 0, start, time.Now())
	}

	var peak uint64
	loopStart, pausedBefore := time.Now(), pc.m.pausedSoFar()
	for steps := 1; ; steps++ {
		more, err := s.Step()
		if err != nil {
			return nil, 0, err
		}
		if !more || steps == ft.truncateSteps {
			break
		}
		counts.steps++
		if steps%16 == 0 {
			pc.tick()
		}
		if steps%heapEvery == 0 {
			peak = max(peak, pc.liveHeap())
			counts.forcedGCs++
		}
	}
	counts.loop += time.Since(loopStart) - (pc.m.pausedSoFar() - pausedBefore)
	peak = max(peak, pc.liveHeap())
	counts.forcedGCs++

	start = time.Now()
	res, err := s.Result()
	if tr != nil {
		tr.timed(layMetricsReport, 0, 0, start, time.Now())
	}
	return res, peak, err
}

// newSimulator builds the spec's simulator over one input: fresh, or
// resumed from snapshot when one is given. A traced run times the source.
func (sp replaySpec) newSimulator(in replayInput, m sched.Method, tr *tracer, snapshot []byte, extra ...sim.Option) (*sim.Simulator, error) {
	opts := append([]sim.Option{sim.WithWindow(sp.window, 50), sim.WithSeed(in.seed)}, extra...)
	var src trace.JobSource
	if sp.input != inMemory {
		var err error
		if src, err = trace.OpenTrace(in.path, trace.SWFOptions{}); err != nil {
			return nil, err
		}
		if tr != nil {
			src = &tracedSource{src: src, t: tr}
		}
		opts = append(opts, sim.WithSource(src))
		if sp.input == gzStream {
			// A stream has no known horizon to trim fractions of, so it
			// measures the whole run, as `bbsim -stream` does.
			opts = append(opts, sim.WithMeasurement(0, 0), sim.WithStreamingMetrics())
		} else {
			// The file was written from a workload whose horizon set-up
			// knows: trim the tenth at each end, as a materialized run does.
			trim := int64(0.1 * float64(in.horizon))
			opts = append(opts, sim.WithMeasureWindow(trim, in.horizon-trim))
		}
	}
	var s *sim.Simulator
	var err error
	if snapshot != nil {
		s, err = sim.Restore(in.w, m, bytes.NewReader(snapshot), opts...)
	} else {
		s, err = sim.NewSimulator(in.w, m, opts...)
	}
	if err != nil {
		if c, ok := src.(trace.Closer); ok {
			c.Close() // the simulator never took ownership
		}
		return nil, err
	}
	return s, nil
}
