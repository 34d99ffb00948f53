package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"bbsched/internal/job"
	"bbsched/internal/rng"
)

// Streaming decoders: SWF and CSV sources that read one record per Next
// and never hold the full file, so multi-year archive logs replay in
// bounded memory. Both reuse the materialized readers' parse helpers
// (field clamping, NaN rejection, memory saturation) so the two paths
// cannot drift.
//
// Differences from the materialized readers, forced by the single-pass
// contract:
//   - SWF: the materialized reader sorts by submit time after the fact;
//     the stream clamps mild timestamp disorder to the running maximum
//     instead (archives carry jitter). Preceding-job links are dropped —
//     resolving them needs the full SWF-ID map the stream refuses to hold.
//   - CSV: records must already be in submit order with dense IDs (which
//     is exactly what WriteCSV emits); violations are errors, not fixups.

// SWFSource streams an SWF log (see ReadSWF for the format).
type SWFSource struct {
	sc         *bufio.Scanner
	closer     io.Closer
	opts       SWFOptions
	cores      int
	line       int
	emitted    int
	lastSubmit int64
	done       bool
}

// NewSWFSource returns a streaming SWF decoder over r. If r implements
// io.Closer it is closed when the stream drains or fails.
func NewSWFSource(r io.Reader, opts SWFOptions) *SWFSource {
	cores := opts.CoresPerNode
	if cores <= 0 {
		cores = 1
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	s := &SWFSource{sc: sc, opts: opts, cores: cores}
	if c, ok := r.(io.Closer); ok {
		s.closer = c
	}
	return s
}

// OpenSWF opens path as a streaming SWF source, transparently
// decompressing a ".gz" suffix (Parallel Workloads Archive logs ship
// gzipped); the file is closed when the stream drains, fails, or Close is
// called.
func OpenSWF(path string, opts SWFOptions) (*SWFSource, error) {
	r, err := openTraceFile(path)
	if err != nil {
		return nil, err
	}
	return NewSWFSource(r, opts), nil
}

// gzipReadCloser decompresses through to the underlying file and closes
// both ends.
type gzipReadCloser struct {
	gz    *gzip.Reader
	under io.Closer
}

func (g *gzipReadCloser) Read(p []byte) (int, error) { return g.gz.Read(p) }

func (g *gzipReadCloser) Close() error {
	err := g.gz.Close()
	if uerr := g.under.Close(); err == nil {
		err = uerr
	}
	return err
}

// openTraceFile opens path for streaming, wrapping a gzip decompressor
// when the name ends in ".gz".
func openTraceFile(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if !strings.HasSuffix(strings.ToLower(path), ".gz") {
		return f, nil
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return &gzipReadCloser{gz: gz, under: f}, nil
}

// OpenTrace opens path as a streaming source, dispatching on the file
// extension: ".swf" decodes as an SWF archive log, anything else as the
// repository CSV format. A trailing ".gz" is stripped before the
// extension check and decompressed transparently, so "theta.swf.gz" and
// "trace.csv.gz" both stream without an unpack step.
func OpenTrace(path string, opts SWFOptions) (JobSource, error) {
	base := strings.TrimSuffix(strings.ToLower(path), ".gz")
	if strings.HasSuffix(base, ".swf") {
		return OpenSWF(path, opts)
	}
	return OpenCSV(path)
}

// Next implements JobSource.
func (s *SWFSource) Next() (*job.Job, error) {
	if s.done {
		return nil, io.EOF
	}
	for {
		if s.opts.MaxJobs > 0 && s.emitted >= s.opts.MaxJobs {
			return nil, s.finish(nil)
		}
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				return nil, s.finish(fmt.Errorf("trace: swf: %w", err))
			}
			return nil, s.finish(nil)
		}
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		var v [swfNumFields]int64
		if err := parseSWFFields(text, v[:]); err != nil {
			return nil, s.finish(fmt.Errorf("trace: swf line %d: %w", s.line, err))
		}
		j, err := swfJob(v[:], s.emitted, s.cores, s.opts)
		if err != nil {
			return nil, s.finish(fmt.Errorf("trace: swf line %d: %w", s.line, err))
		}
		if j == nil {
			continue
		}
		// Single-pass analogue of the materialized reader's sort: clamp
		// out-of-order timestamps up to the running maximum.
		if j.SubmitTime < s.lastSubmit {
			j.SubmitTime = s.lastSubmit
		}
		s.lastSubmit = j.SubmitTime
		s.emitted++
		return j, nil
	}
}

// finish marks the stream drained/failed, closes the backing file, and
// returns err (or io.EOF for a clean drain).
func (s *SWFSource) finish(err error) error {
	s.done = true
	s.Close()
	if err != nil {
		return err
	}
	return io.EOF
}

// Close releases the backing file, if any. Safe to call repeatedly.
func (s *SWFSource) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c.Close()
}

// CSVSource streams a trace in the repository's CSV format (see
// WriteCSV). Records must be in submit order with dense IDs and deps
// referencing earlier jobs only — the invariants WriteCSV output holds.
type CSVSource struct {
	cr         *csv.Reader
	closer     io.Closer
	extraNames []string
	line       int
	next       int // expected dense ID
	lastSubmit int64
	done       bool
}

// NewCSVSource returns a streaming CSV decoder over r, reading and
// validating the header eagerly so format errors surface at open time.
// If r implements io.Closer it is closed when the stream drains or fails.
func NewCSVSource(r io.Reader) (*CSVSource, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	extraNames, err := parseCSVHeader(header)
	if err != nil {
		return nil, err
	}
	s := &CSVSource{cr: cr, extraNames: extraNames, line: 1}
	if c, ok := r.(io.Closer); ok {
		s.closer = c
	}
	return s, nil
}

// OpenCSV opens path as a streaming CSV source, transparently
// decompressing a ".gz" suffix; the file is closed when the stream
// drains, fails, or Close is called.
func OpenCSV(path string) (*CSVSource, error) {
	r, err := openTraceFile(path)
	if err != nil {
		return nil, err
	}
	s, err := NewCSVSource(r)
	if err != nil {
		r.Close()
		return nil, err
	}
	return s, nil
}

// ExtraNames returns the extra resource dimension names declared by the
// header ("res:<name>" columns, in file order).
func (s *CSVSource) ExtraNames() []string { return s.extraNames }

// Next implements JobSource.
func (s *CSVSource) Next() (*job.Job, error) {
	if s.done {
		return nil, io.EOF
	}
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, s.finish(nil)
	}
	if err != nil {
		return nil, s.finish(fmt.Errorf("trace: line %d: %w", s.line, err))
	}
	s.line++
	j, err := parseRecord(rec, len(s.extraNames))
	if err != nil {
		return nil, s.finish(fmt.Errorf("trace: line %d: %w", s.line, err))
	}
	if j.ID != s.next {
		return nil, s.finish(fmt.Errorf("trace: line %d: job ID %d breaks the dense submit-order sequence (want %d); streaming requires WriteCSV-ordered traces", s.line, j.ID, s.next))
	}
	if j.SubmitTime < s.lastSubmit {
		return nil, s.finish(fmt.Errorf("trace: line %d: submit %d before previous %d; streaming requires submit-ordered traces", s.line, j.SubmitTime, s.lastSubmit))
	}
	for _, d := range j.Deps {
		if d < 0 || d >= j.ID {
			return nil, s.finish(fmt.Errorf("trace: line %d: dep %d does not reference an earlier job", s.line, d))
		}
	}
	s.next++
	s.lastSubmit = j.SubmitTime
	return j, nil
}

func (s *CSVSource) finish(err error) error {
	s.done = true
	s.Close()
	if err != nil {
		return err
	}
	return io.EOF
}

// Close releases the backing file, if any. Safe to call repeatedly.
func (s *CSVSource) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c.Close()
}

// CSVWriter is the streaming counterpart of WriteCSV: one job per Write
// call, header emitted lazily, nothing materialized — tracegen uses it to
// produce million-job fixtures in constant memory. Output is
// byte-identical to WriteCSV over the same jobs.
type CSVWriter struct {
	cw         *csv.Writer
	extraNames []string
	headerDone bool
}

// NewCSVWriter returns a streaming trace writer; extraNames append one
// "res:<name>" column each, exactly as in WriteCSV.
func NewCSVWriter(w io.Writer, extraNames ...string) *CSVWriter {
	return &CSVWriter{cw: csv.NewWriter(w), extraNames: extraNames}
}

// Write appends one job record (emitting the header first if needed).
func (w *CSVWriter) Write(j *job.Job) error {
	if !w.headerDone {
		if err := w.cw.Write(csvHeaderWith(w.extraNames)); err != nil {
			return err
		}
		w.headerDone = true
	}
	return w.cw.Write(csvRecord(j, len(w.extraNames)))
}

// Flush writes buffered records through and reports any write error.
// A header-only file is still valid: Flush emits the header if no job
// was ever written.
func (w *CSVWriter) Flush() error {
	if !w.headerDone {
		if err := w.cw.Write(csvHeaderWith(w.extraNames)); err != nil {
			return err
		}
		w.headerDone = true
	}
	w.cw.Flush()
	return w.cw.Error()
}

// genSource streams jobs from the statistical generator without
// materializing them (see GenSource).
type genSource struct {
	cfg     GenConfig
	sizes   *rng.Stream
	times   *rng.Stream
	bbs     *rng.Stream
	users   *rng.Stream
	deps    *rng.Stream
	arrive  *rng.Stream
	names   []string // userNames(cfg.Users)
	i       int
	t       float64
	nodeSec int64 // running Σ nodes×runtime, for load self-calibration
}

// GenSource is the streaming counterpart of Generate: it samples jobs one
// at a time from the same size/runtime/burst-buffer distributions,
// assigning submit times online. Generate calibrates interarrivals from
// the whole trace's offered load in a second pass; a stream has no second
// pass, so GenSource self-calibrates from the running mean node-seconds
// per job — the offered load converges to cfg.TargetLoad as the stream
// progresses but the two generators are not byte-identical. Dependencies
// (cfg.DependencyFraction) reference uniformly chosen earlier IDs, and
// IDs are dense in emission order, so the stream satisfies the JobSource
// contract by construction.
func GenSource(cfg GenConfig) JobSource {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed).Split("trace-stream:" + cfg.System.Cluster.Name)
	return &genSource{
		cfg:    cfg,
		sizes:  root.Split("sizes"),
		times:  root.Split("runtimes"),
		bbs:    root.Split("bb"),
		users:  root.Split("users"),
		deps:   root.Split("deps"),
		arrive: root.Split("arrivals"),
		names:  userNames(cfg.Users),
	}
}

func (g *genSource) Next() (*job.Job, error) {
	if g.i >= g.cfg.Jobs {
		return nil, io.EOF
	}
	sys := g.cfg.System
	n := sampleNodes(g.sizes, sys)
	runtime, walltime := sampleRuntime(g.times, sys)
	var bb int64
	if g.bbs.Bool(sys.BBFraction) {
		bb = sampleBB(g.bbs, 1, sys.MaxBBRequestGB)
	}
	g.nodeSec += int64(n) * runtime

	// Interarrival calibration mirrors assignArrivals, with the trace-wide
	// mean node-seconds replaced by the running mean over jobs seen so far.
	const shape = 0.7
	meanJobNodeSec := float64(g.nodeSec) / float64(g.i+1)
	meanIA := meanJobNodeSec / (float64(sys.Cluster.Nodes) * g.cfg.TargetLoad)
	scale := meanIA / math.Gamma(1+1/shape)
	g.t += g.arrive.Weibull(shape, scale)

	j := job.MustNew(g.i, int64(g.t), runtime, walltime, job.NewDemand(n, bb, 0))
	j.User = g.names[g.users.Intn(g.cfg.Users)]
	if bb > 0 && g.cfg.BBDrainGBps > 0 {
		j.StageOutSec = int64(float64(bb) / g.cfg.BBDrainGBps)
	}
	if g.i > 0 && g.cfg.DependencyFraction > 0 && g.deps.Bool(g.cfg.DependencyFraction) {
		j.Deps = []int{g.deps.Intn(g.i)}
	}
	g.i++
	return j, nil
}
