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

// Streaming decoders and writer: SWF and CSV sources that read one record
// per Next and never hold the full file, so multi-year archive logs replay
// in bounded memory, and a CSV writer that takes one job per Write. They
// are the only implementation of each format: ReadSWF, ReadCSV and
// ReadCSVNamed drain a source, and WriteCSV is a loop over CSVWriter.
//
// What a single pass cannot do is left to the batch readers:
//   - SWF: ReadSWF resolves preceding-job links (which need the full SWF-ID
//     map the stream refuses to hold) and sorts by submit time after the
//     fact; the stream drops the links and clamps mild timestamp disorder
//     to the running maximum instead (archives carry jitter).
//   - CSV: nothing. Records must already be in submit order with dense IDs
//     and deps on earlier jobs (exactly what WriteCSV emits); a violation
//     is an error, not a fixup, in the stream and in ReadCSV alike.

// fileSource ends a decoder's stream: it closes the backing reader, if
// that is an io.Closer, when the stream drains or fails, or on Close.
type fileSource struct {
	closer io.Closer
	done   bool
}

func newFileSource(r io.Reader) fileSource {
	c, _ := r.(io.Closer)
	return fileSource{closer: c}
}

// finish marks the stream drained/failed, closes the backing file, and
// returns err (or io.EOF for a clean drain).
func (f *fileSource) finish(err error) error {
	f.done = true
	f.Close()
	if err != nil {
		return err
	}
	return io.EOF
}

// Close releases the backing file, if any. Safe to call repeatedly.
func (f *fileSource) Close() error {
	if f.closer == nil {
		return nil
	}
	c := f.closer
	f.closer = nil
	return c.Close()
}

// SWFSource streams an SWF log (see ReadSWF for the format).
type SWFSource struct {
	fileSource
	sc         *bufio.Scanner
	opts       SWFOptions
	line       int
	emitted    int
	lastSubmit int64
	fields     [swfNumFields]int64
}

// NewSWFSource returns a streaming SWF decoder over r. If r implements
// io.Closer it is closed when the stream drains or fails.
func NewSWFSource(r io.Reader, opts SWFOptions) *SWFSource {
	opts.CoresPerNode = max(opts.CoresPerNode, 1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &SWFSource{fileSource: newFileSource(r), sc: sc, opts: opts}
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
	j, _, err := s.record()
	if err != nil {
		return nil, err
	}
	// Single-pass analogue of ReadSWF's sort: clamp out-of-order
	// timestamps up to the running maximum.
	if j.SubmitTime < s.lastSubmit {
		j.SubmitTime = s.lastSubmit
	}
	s.lastSubmit = j.SubmitTime
	return j, nil
}

// record returns the next kept job, numbered in emission order, and the
// raw fields it was built from (valid until the next call), or io.EOF
// once the log or opts.MaxJobs is spent.
func (s *SWFSource) record() (*job.Job, *[swfNumFields]int64, error) {
	if s.done {
		return nil, nil, io.EOF
	}
	for {
		if s.opts.MaxJobs > 0 && s.emitted >= s.opts.MaxJobs {
			return nil, nil, s.finish(nil)
		}
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				return nil, nil, s.finish(fmt.Errorf("trace: swf: %w", err))
			}
			return nil, nil, s.finish(nil)
		}
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		if err := parseSWFFields(text, s.fields[:]); err != nil {
			return nil, nil, s.finish(fmt.Errorf("trace: swf line %d: %w", s.line, err))
		}
		j, err := swfJob(s.fields[:], s.emitted, s.opts)
		if err != nil {
			return nil, nil, s.finish(fmt.Errorf("trace: swf line %d: %w", s.line, err))
		}
		if j == nil {
			continue
		}
		s.emitted++
		return j, &s.fields, nil
	}
}

// CSVSource streams a trace in the repository's CSV format (see
// WriteCSV). Records must be in submit order with dense IDs and deps
// referencing earlier jobs only — the invariants WriteCSV output holds.
type CSVSource struct {
	fileSource
	cr         *csv.Reader
	extraNames []string
	line       int
	seq        sequence
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
	return &CSVSource{fileSource: newFileSource(r), cr: cr, extraNames: extraNames, line: 1}, nil
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
	if err := s.seq.check(j); err != nil {
		return nil, s.finish(fmt.Errorf("trace: line %d: %w", s.line, err))
	}
	return j, nil
}

// CSVWriter writes a trace one job per Write call, header emitted lazily,
// nothing materialized — tracegen uses it to produce million-job fixtures
// in constant memory. WriteCSV is a loop over it.
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
	if err := w.header(); err != nil {
		return err
	}
	return w.cw.Write(csvRecord(j, len(w.extraNames)))
}

// Flush writes buffered records through and reports any write error.
// A header-only file is still valid: Flush emits the header if no job
// was ever written.
func (w *CSVWriter) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	w.cw.Flush()
	return w.cw.Error()
}

// header writes the header row once.
func (w *CSVWriter) header() error {
	if w.headerDone {
		return nil
	}
	if err := w.cw.Write(csvHeaderWith(w.extraNames)); err != nil {
		return err
	}
	w.headerDone = true
	return nil
}

// genSource streams jobs from the statistical generator without
// materializing them (see GenSource).
type genSource struct {
	sampler
	deps    *rng.Stream
	arrive  *rng.Stream
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
		sampler: newSampler(cfg, root),
		deps:    root.Split("deps"),
		arrive:  root.Split("arrivals"),
	}
}

func (g *genSource) Next() (*job.Job, error) {
	if g.i >= g.cfg.Jobs {
		return nil, io.EOF
	}
	j := g.job(g.i)
	g.nodeSec += int64(j.Demand.NodeCount()) * j.Runtime

	// Interarrival calibration mirrors assignArrivals, with the trace-wide
	// mean node-seconds replaced by the running mean over jobs seen so far.
	const shape = 0.7
	meanJobNodeSec := float64(g.nodeSec) / float64(g.i+1)
	meanIA := meanJobNodeSec / (float64(g.cfg.System.Cluster.Nodes) * g.cfg.TargetLoad)
	scale := meanIA / math.Gamma(1+1/shape)
	g.t += g.arrive.Weibull(shape, scale)
	j.SubmitTime = int64(g.t)

	if g.i > 0 && g.cfg.DependencyFraction > 0 && g.deps.Bool(g.cfg.DependencyFraction) {
		j.Deps = []int{g.deps.Intn(g.i)}
	}
	g.i++
	return j, nil
}
