package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
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
//
// Where the work runs: a file opened by OpenCSV, OpenSWF or OpenTrace is
// read, gunzipped when its name ends in ".gz", and decoded on a goroutine
// of its own, which hands the jobs over in batches of 128, the engine's
// look-ahead, through a ring of two (readahead.go). Next of an opened
// source pops the next job of a batch, and yields the jobs and errors the
// same decoder over the same bytes yields; only the header of a CSV file
// is read on the caller's goroutine, by the opener, so a bad header still
// fails the open. A decoder over a caller's reader (NewCSVSource,
// NewSWFSource) reads and decodes it in Next, on the caller's goroutine.
// On the write side, CSVWriter formats records on the
// caller's goroutine into 64 KiB blocks and a goroutine of its own writes
// them to the caller's writer, a gzip.Writer's deflate included
// (writebehind.go). That goroutine starts when the first block is full,
// so a trace under 64 KiB is written by Flush on the caller's goroutine;
// Flush waits for it to write every block and return, and until then the
// caller must not write to its writer. The CSV decoder and writer do not
// use encoding/csv: CSVSource unquotes a record from the bufio.Reader's
// slices into one reused buffer and parses its integers with no allocated
// string, and CSVWriter appends a record straight into its block. Both
// hold to encoding/csv's language and bytes; the encoding/csv oracle and
// the fuzzer that compares them are in csv_reference_test.go. The SWF
// decoder splits a line's bytes in place, and its strings.Fields oracle
// is in swf_reference_test.go. A job and
// its demand are one allocation (job.NewPacked), and a CSV or SWF source
// shares one string among the jobs of a user.

// fileSource ends a decoder's stream: it closes the backing reader, if
// that is an io.Closer, when the stream drains or fails, or on Close. On
// an opened file, the backing reader is the read-ahead, and Next pops it.
type fileSource struct {
	closer io.Closer
	ahead  *readAhead // an opened file's decoded jobs; nil over a caller's reader
	done   bool
}

// aheadSource is the fileSource of an opened file, whose jobs the
// read-ahead decodes.
func aheadSource(ra *readAhead) fileSource { return fileSource{closer: ra, ahead: ra} }

// pop returns the next job the read-ahead decoded, ending the stream at
// the decoder's end.
func (f *fileSource) pop() (*job.Job, error) {
	if f.done {
		return nil, io.EOF
	}
	j, err := f.ahead.next()
	if err == io.EOF {
		return nil, f.finish(nil)
	}
	if err != nil {
		return nil, f.finish(err)
	}
	return j, nil
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
	users      map[int64]string
}

// NewSWFSource returns a streaming SWF decoder over r. If r implements
// io.Closer it is closed when the stream drains or fails. It reads r on
// the caller's goroutine.
func NewSWFSource(r io.Reader, opts SWFOptions) *SWFSource {
	opts.CoresPerNode = max(opts.CoresPerNode, 1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &SWFSource{fileSource: newFileSource(r), sc: sc, opts: opts, users: map[int64]string{}}
}

// OpenSWF opens path as a streaming SWF source, transparently
// decompressing a ".gz" suffix (Parallel Workloads Archive logs ship
// gzipped) and reading and decoding the file ahead of the caller on a
// goroutine of its own; the file is closed when the stream drains, fails,
// or Close is called.
func OpenSWF(path string, opts SWFOptions) (*SWFSource, error) {
	t, err := openTraceFile(path)
	if err != nil {
		return nil, err
	}
	return t.openSWF(opts), nil
}

// openSWF starts an SWF decoder over t on the read-ahead goroutine.
func (t *traceFile) openSWF(opts SWFOptions) *SWFSource {
	dec := NewSWFSource(t.r, opts)
	return &SWFSource{fileSource: aheadSource(t.readAhead(dec.Next))}
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
	if s.ahead != nil {
		return s.pop()
	}
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
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 || line[0] == ';' {
			continue
		}
		if err := parseSWFFields(line, s.fields[:]); err != nil {
			return nil, nil, s.finish(fmt.Errorf("trace: swf line %d: %w", s.line, err))
		}
		j, err := swfJob(s.fields[:], s.emitted, s.opts)
		if err != nil {
			return nil, nil, s.finish(fmt.Errorf("trace: swf line %d: %w", s.line, err))
		}
		if j == nil {
			continue
		}
		if uid := s.fields[swfUserID]; uid >= 0 {
			j.User = s.user(uid)
		}
		s.emitted++
		return j, &s.fields, nil
	}
}

// user returns the name of user uid as a string the source's jobs share,
// as CSVSource.user does.
func (s *SWFSource) user(uid int64) string {
	if u, ok := s.users[uid]; ok {
		return u
	}
	u := fmt.Sprintf("user%03d", uid)
	if len(s.users) < maxInternedUsers {
		s.users[uid] = u
	}
	return u
}

// CSVSource streams a trace in the repository's CSV format (see
// WriteCSV). Records must be in submit order with dense IDs and deps
// referencing earlier jobs only — the invariants WriteCSV output holds.
//
// It reads the CSV that encoding/csv's Reader reads with its defaults
// (quoted fields with "" escapes, embedded commas and newlines, CRLF line
// ends, blank lines skipped, every record as wide as the header), but
// unquotes a record into one reused buffer and parses its integers with
// no allocated string, so a record costs no allocation of its own.
type CSVSource struct {
	fileSource
	br         *bufio.Reader
	extraNames []string
	line       int // records read, the header included
	seq        sequence

	fields  [][]byte // the record read last, valid until the next read
	nFields int      // the header's width, which every record must have
	rawLine int      // lines read, for syntax errors
	rec     []byte   // the record read last, unquoted; fields index it
	long    []byte   // a line longer than br's buffer
	extras  []int64
	users   map[string]string
}

// Syntax errors, worded as encoding/csv words them.
var (
	errFieldCount = errors.New("wrong number of fields")
	errBareQuote  = errors.New(`bare " in non-quoted-field`)
	errQuote      = errors.New(`extraneous or missing " in quoted-field`)
)

// maxInternedUsers bounds the user names a CSVSource or SWFSource shares
// among its jobs; a trace with more distinct users gives the rest a string
// each.
const maxInternedUsers = 1 << 10

// NewCSVSource returns a streaming CSV decoder over r, reading and
// validating the header eagerly so format errors surface at open time.
// If r implements io.Closer it is closed when the stream drains or fails.
// It reads r on the caller's goroutine.
func NewCSVSource(r io.Reader) (*CSVSource, error) {
	s := &CSVSource{fileSource: newFileSource(r), br: bufio.NewReader(r), users: map[string]string{}}
	if err := s.readRecord(); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	header := make([]string, len(s.fields))
	for i, f := range s.fields {
		header[i] = string(f)
	}
	extraNames, err := parseCSVHeader(header)
	if err != nil {
		return nil, err
	}
	s.extraNames, s.nFields, s.line = extraNames, len(header), 1
	s.extras = make([]int64, len(extraNames))
	return s, nil
}

// OpenCSV opens path as a streaming CSV source, transparently
// decompressing a ".gz" suffix and reading and decoding the file ahead of
// the caller on a goroutine of its own; the header is read here, so a bad
// one fails the open. The file is closed when the stream drains, fails,
// or Close is called.
func OpenCSV(path string) (*CSVSource, error) {
	t, err := openTraceFile(path)
	if err != nil {
		return nil, err
	}
	return t.openCSV()
}

// openCSV reads t's header and starts a CSV decoder over the rest on the
// read-ahead goroutine.
func (t *traceFile) openCSV() (*CSVSource, error) {
	dec, err := NewCSVSource(t.r)
	if err != nil {
		t.close()
		return nil, err
	}
	return &CSVSource{fileSource: aheadSource(t.readAhead(dec.Next)), extraNames: dec.extraNames}, nil
}

// ExtraNames returns the extra resource dimension names declared by the
// header ("res:<name>" columns, in file order).
func (s *CSVSource) ExtraNames() []string { return s.extraNames }

// Next implements JobSource.
func (s *CSVSource) Next() (*job.Job, error) {
	if s.ahead != nil {
		return s.pop()
	}
	if s.done {
		return nil, io.EOF
	}
	err := s.readRecord()
	if err == io.EOF {
		return nil, s.finish(nil)
	}
	if err != nil {
		return nil, s.finish(fmt.Errorf("trace: line %d: %w", s.line, err))
	}
	s.line++
	j, err := s.job()
	if err != nil {
		return nil, s.finish(fmt.Errorf("trace: line %d: %w", s.line, err))
	}
	if err := s.seq.check(j); err != nil {
		return nil, s.finish(fmt.Errorf("trace: line %d: %w", s.line, err))
	}
	return j, nil
}

// readLine reads the next line as encoding/csv does: its end normalized
// to one "\n", none at the end of the input (where a last "\r" is
// dropped), and io.EOF only once no byte is left.
func (s *CSVSource) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if n := len(line); n > 0 && err == io.EOF {
		err = nil
		if line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	s.rawLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is 1 if b ends in a newline, else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// readRecord reads the next record into s.fields, skipping blank lines,
// and returns io.EOF at the end of the input: encoding/csv's field loop,
// step for step, unquoting into s.rec and reading on while a quoted field
// spans lines.
func (s *CSVSource) readRecord() error {
	line, errRead := s.readLine()
	for errRead == nil && len(line) == lengthNL(line) {
		line, errRead = s.readLine()
	}
	if errRead == io.EOF {
		return io.EOF
	}
	recLine := s.rawLine
	s.rec = s.rec[:0]
	var ends [16]int
	end := ends[:0]
	var err error
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				err = fmt.Errorf("parse error on line %d: %w", s.rawLine, errBareQuote)
				break parseField
			}
			s.rec = append(s.rec, field...)
			end = append(end, len(s.rec))
			if i < 0 {
				break parseField
			}
			line = line[i+1:]
			continue parseField
		}
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				s.rec = append(s.rec, line[:i]...)
				line = line[i+1:]
				switch {
				case len(line) > 0 && line[0] == '"': // "" is a quote
					s.rec = append(s.rec, '"')
					line = line[1:]
				case len(line) > 0 && line[0] == ',': // the field ends
					line = line[1:]
					end = append(end, len(s.rec))
					continue parseField
				case lengthNL(line) == len(line): // the record ends
					end = append(end, len(s.rec))
					break parseField
				default:
					err = fmt.Errorf("parse error on line %d: %w", s.rawLine, errQuote)
					break parseField
				}
			case len(line) > 0: // the field goes on past the line
				s.rec = append(s.rec, line...)
				if errRead != nil {
					break parseField
				}
				line, errRead = s.readLine()
				if errRead == io.EOF {
					errRead = nil
				}
			default: // the input ends inside the quotes
				if errRead == nil {
					err = fmt.Errorf("parse error on line %d: %w", s.rawLine, errQuote)
					break parseField
				}
				end = append(end, len(s.rec))
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	if err != nil {
		return err
	}
	s.fields = s.fields[:0]
	start := 0
	for _, e := range end {
		s.fields = append(s.fields, s.rec[start:e:e])
		start = e
	}
	if s.nFields > 0 && len(s.fields) != s.nFields {
		return fmt.Errorf("record on line %d: %w", recLine, errFieldCount)
	}
	return nil
}

// job builds the job in s.fields, whose columns csvHeader names.
func (s *CSVSource) job() (*job.Job, error) {
	f := s.fields
	id, err := strconv.Atoi(string(f[0]))
	if err != nil {
		return nil, fmt.Errorf("id: %w", err)
	}
	var ints [7]int64
	for i := range ints {
		if ints[i], err = parseInt(f[i+2]); err != nil {
			return nil, fmt.Errorf("%s: %w", csvHeader[i+2], err)
		}
	}
	for k := range s.extras {
		if s.extras[k], err = parseInt(f[len(csvHeader)+k]); err != nil {
			return nil, fmt.Errorf("extra column %d: %w", k, err)
		}
	}
	j, err := job.NewPacked(id, ints[0], ints[1], ints[2], int(ints[3]), ints[4], ints[5], s.extras...)
	if err != nil {
		return nil, err
	}
	j.User = s.user(f[1])
	j.StageOutSec = ints[6]
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if deps := f[9]; len(deps) > 0 {
		for {
			i := bytes.IndexByte(deps, ';')
			part := deps
			if i >= 0 {
				part = deps[:i]
			}
			dep, err := strconv.Atoi(string(part))
			if err != nil {
				return nil, fmt.Errorf("deps: %w", err)
			}
			j.Deps = append(j.Deps, dep)
			if i < 0 {
				break
			}
			deps = deps[i+1:]
		}
	}
	return j, nil
}

// user returns the name in b as a string the source's jobs share: a trace
// names few users, so most records allocate no name.
func (s *CSVSource) user(b []byte) string {
	if u, ok := s.users[string(b)]; ok {
		return u
	}
	u := string(b)
	if len(s.users) < maxInternedUsers {
		s.users[u] = u
	}
	return u
}

// CSVWriter writes a trace one job per Write call, header emitted lazily,
// nothing materialized — tracegen uses it to produce million-job fixtures
// in constant memory. WriteCSV is a loop over it. It writes the bytes
// encoding/csv's Writer writes for the same rows.
//
// Records are appended into 64 KiB blocks that a goroutine of the
// writer's own writes to w (writebehind.go). The goroutine starts when the
// first block is full; from then until Flush returns it owns w, so the
// caller must not write to w, or close it, in between. Flush hands on the
// last block, waits for the goroutine to write every block and return,
// and reports the first write error; that error is sticky, as
// bufio.Writer's is. A writer may be written again after Flush.
type CSVWriter struct {
	wb         writeBehind
	extraNames []string
	headerDone bool
}

// NewCSVWriter returns a streaming trace writer; extraNames append one
// "res:<name>" column each, exactly as in WriteCSV.
func NewCSVWriter(w io.Writer, extraNames ...string) *CSVWriter {
	return &CSVWriter{wb: writeBehind{dst: w, buf: make([]byte, 0, 4<<10)}, extraNames: extraNames}
}

// Write appends one job record (emitting the header first if needed).
func (w *CSVWriter) Write(j *job.Job) error {
	if w.wb.err != nil {
		return w.wb.err
	}
	w.header()
	w.wb.buf = appendCSVRecord(w.wb.buf, j, len(w.extraNames))
	return w.wb.spill()
}

// Flush writes buffered records through and reports any write error.
// A header-only file is still valid: Flush emits the header if no job
// was ever written.
func (w *CSVWriter) Flush() error {
	w.header()
	return w.wb.flush()
}

// header appends the header row once.
func (w *CSVWriter) header() {
	if !w.headerDone {
		w.wb.buf = appendCSVHeader(w.wb.buf, w.extraNames)
		w.headerDone = true
	}
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
