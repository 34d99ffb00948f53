package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bbsched/internal/job"
)

// The oracle for the CSV decoder and writer: the trace format as
// encoding/csv reads and writes it. CSVSource must accept what
// referenceCSVSource accepts, reject what it rejects, and build the same
// jobs; CSVWriter must write the bytes referenceWriteCSV writes.

// referenceCSVSource decodes a trace through encoding/csv's Reader.
type referenceCSVSource struct {
	cr         *csv.Reader
	extraNames []string
	line       int
	seq        sequence
	done       bool
}

func newReferenceCSVSource(r io.Reader) (*referenceCSVSource, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	extraNames, err := parseCSVHeader(header)
	if err != nil {
		return nil, err
	}
	return &referenceCSVSource{cr: cr, extraNames: extraNames, line: 1}, nil
}

func (s *referenceCSVSource) Next() (*job.Job, error) {
	if s.done {
		return nil, io.EOF
	}
	j, err := s.next()
	if err != nil {
		s.done = true
	}
	return j, err
}

func (s *referenceCSVSource) next() (*job.Job, error) {
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", s.line, err)
	}
	s.line++
	j, err := referenceRecord(rec, len(s.extraNames))
	if err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", s.line, err)
	}
	if err := s.seq.check(j); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", s.line, err)
	}
	return j, nil
}

// referenceRecord builds a job from a record with strconv.
func referenceRecord(rec []string, nExtra int) (*job.Job, error) {
	id, err := strconv.Atoi(rec[0])
	if err != nil {
		return nil, fmt.Errorf("id: %w", err)
	}
	ints := make([]int64, 7)
	for i, field := range rec[2:9] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", csvHeader[i+2], err)
		}
		ints[i] = v
	}
	extras := make([]int64, nExtra)
	for k := range extras {
		v, err := strconv.ParseInt(rec[len(csvHeader)+k], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("extra column %d: %w", k, err)
		}
		extras[k] = v
	}
	d := job.NewDemandVector(int(ints[3]), ints[4], ints[5], extras...)
	j, err := job.New(id, ints[0], ints[1], ints[2], d)
	if err != nil {
		return nil, err
	}
	j.User = rec[1]
	j.StageOutSec = ints[6]
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if rec[9] != "" {
		for _, part := range strings.Split(rec[9], ";") {
			dep, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("deps: %w", err)
			}
			j.Deps = append(j.Deps, dep)
		}
	}
	return j, nil
}

// referenceWriteCSV writes jobs through encoding/csv's Writer.
func referenceWriteCSV(w io.Writer, jobs []*job.Job, extraNames ...string) error {
	cw := csv.NewWriter(w)
	header := append([]string(nil), csvHeader...)
	for _, n := range extraNames {
		header = append(header, extraColPrefix+n)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, j := range jobs {
		deps := make([]string, len(j.Deps))
		for i, d := range j.Deps {
			deps[i] = strconv.Itoa(d)
		}
		rec := []string{
			strconv.Itoa(j.ID), j.User,
			strconv.FormatInt(j.SubmitTime, 10), strconv.FormatInt(j.Runtime, 10),
			strconv.FormatInt(j.WalltimeEst, 10), strconv.Itoa(j.Demand.NodeCount()),
			strconv.FormatInt(j.Demand.BB(), 10), strconv.FormatInt(j.Demand.SSDPerNode(), 10),
			strconv.FormatInt(j.StageOutSec, 10), strings.Join(deps, ";"),
		}
		for k := range extraNames {
			rec = append(rec, strconv.FormatInt(j.Demand.Extra(k), 10))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// oddUsers are user names encoding/csv quotes, and two it does not.
var oddUsers = []string{"a,b", `"q"`, " lead", `\.`, "", "two\nlines", "cr\rlf\r\n", "\tx", "plain", "trail "}

// oddWorkload is a generated workload with extra dimensions, deps and
// every oddUsers name.
func oddWorkload(t testing.TB) ([]*job.Job, []string) {
	t.Helper()
	w := Generate(GenConfig{System: testStreamSystem(), Jobs: 20, Seed: 11, DependencyFraction: 0.3})
	jobs := job.CloneAll(w.Jobs)
	for i, j := range jobs {
		j.User = oddUsers[i%len(oddUsers)]
		j.Demand = job.NewDemandVector(j.Demand.NodeCount(), j.Demand.BB(), j.Demand.SSDPerNode(), int64(i), int64(i*i))
	}
	return jobs, []string{"power_kw", `odd,"name"`}
}

// TestCSVWriterMatchesReference: CSVWriter writes encoding/csv's bytes,
// quoting exactly where it quotes, on generated workloads with and
// without extra columns and with user names that need quotes.
func TestCSVWriterMatchesReference(t *testing.T) {
	odd, names := oddWorkload(t)
	cases := []struct {
		name  string
		jobs  []*job.Job
		extra []string
	}{
		{"generated", Generate(GenConfig{System: testStreamSystem(), Jobs: 300, Seed: 3, DependencyFraction: 0.2}).Jobs, nil},
		{"odd users and extras", odd, names},
		{"header only", nil, []string{" lead"}},
	}
	for _, c := range cases {
		var got, want bytes.Buffer
		if err := WriteCSV(&got, c.jobs, c.extra...); err != nil {
			t.Fatal(err)
		}
		if err := referenceWriteCSV(&want, c.jobs, c.extra...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: CSVWriter wrote\n%q\nencoding/csv writes\n%q", c.name, got.Bytes(), want.Bytes())
		}
	}
	for _, u := range append(oddUsers, "x y", " nbsp", " sep", "\xffbad") {
		if got, want := fieldNeedsQuotes(u), strings.HasPrefix(string(appendReferenceField(u)), `"`); got != want {
			t.Errorf("fieldNeedsQuotes(%q) = %v, encoding/csv quotes it: %v", u, got, want)
		}
	}
}

// appendReferenceField is one field as encoding/csv writes it.
func appendReferenceField(field string) []byte {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	cw.Write([]string{field})
	cw.Flush()
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// checkCSVMatchesReference decodes data with CSVSource and with the
// encoding/csv oracle in lockstep: both refuse the header or neither does,
// with the same extra names, and then each record gives both the same
// job or both an error at the same line.
func checkCSVMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := NewCSVSource(bytes.NewReader(data))
	checkSourceMatchesReference(t, data, got, gerr)
}

// checkSourceMatchesReference is checkCSVMatchesReference for a source
// already opened on data.
func checkSourceMatchesReference(t *testing.T, data []byte, got *CSVSource, gerr error) {
	t.Helper()
	ref, rerr := newReferenceCSVSource(bytes.NewReader(data))
	if (rerr == nil) != (gerr == nil) {
		t.Fatalf("header: CSVSource error %v, encoding/csv error %v", gerr, rerr)
	}
	if rerr != nil {
		if !sameError(gerr, rerr) {
			t.Fatalf("header: CSVSource error %q, encoding/csv error %q", gerr, rerr)
		}
		return
	}
	if !reflect.DeepEqual(got.ExtraNames(), ref.extraNames) {
		t.Fatalf("ExtraNames %q, encoding/csv reads %q", got.ExtraNames(), ref.extraNames)
	}
	for i := 0; ; i++ {
		rj, rerr := ref.Next()
		gj, gerr := got.Next()
		if (rerr == nil) != (gerr == nil) || (rerr == io.EOF) != (gerr == io.EOF) {
			t.Fatalf("record %d: CSVSource (%+v, %v), encoding/csv (%+v, %v)", i, gj, gerr, rj, rerr)
		}
		if rerr != nil {
			if !sameError(gerr, rerr) {
				t.Fatalf("record %d: CSVSource error %q, encoding/csv error %q", i, gerr, rerr)
			}
			return
		}
		if !reflect.DeepEqual(gj, rj) {
			t.Fatalf("record %d: CSVSource job %+v, encoding/csv job %+v", i, gj, rj)
		}
	}
}

// sameError reports whether CSVSource's error is the oracle's: the same
// text, but for a CSV syntax error, whose wording may differ after the
// place it names.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	var syntax *csv.ParseError
	if errors.As(want, &syntax) {
		return errPlace(got) == errPlace(want)
	}
	return got.Error() == want.Error()
}

// errPlace is where an error says it happened: "trace: line 7", or
// "trace: reading header".
func errPlace(err error) string {
	parts := strings.SplitN(err.Error(), ": ", 3)
	return strings.Join(parts[:min(2, len(parts))], ": ")
}

// csvSeeds are inputs at the edges of the CSV language: quoted and
// multi-line fields, CRLF, blank lines, a field count off the header's,
// a bare quote and an integer too long for 64 bits.
func csvSeeds(t testing.TB) [][]byte {
	const h = "id,user,submit,runtime,walltime,nodes,bb_gb,ssd_gb_per_node,stageout,deps"
	odd, names := oddWorkload(t)
	var written bytes.Buffer
	if err := referenceWriteCSV(&written, odd, names...); err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{written.Bytes()}
	for _, s := range []string{
		h + "\n0,\"a,b\",0,10,10,1,0,0,0,\n1,\"say \"\"hi\"\"\",1,10,10,1,0,0,0,0\n",
		h + "\n0,\"two\nlines\",0,10,10,1,0,0,0,\n1,\"three\r\nlines\n\",1,10,10,1,0,0,0,\n",
		h + "\r\n0,u,0,10,10,1,0,0,0,\r\n1,u,0,10,10,1,0,0,0,0\r\n",
		"\n\r\n" + h + "\n\n0,u,0,10,10,1,0,0,0,\n\r\n\n1,u,2,10,10,1,0,0,0,\n\n",
		h + "\n0,u,0,10,10,1,0,0,0\n",
		h + "\n0,u,0,10,10,1,0,0,0,,\n",
		h + "\n0,u\"v,0,10,10,1,0,0,0,\n",
		h + "\n0,\"u\"v,0,10,10,1,0,0,0,\n",
		h + "\n0,\"unterminated,0,10,10,1,0,0,0,\n",
		h + "\n0,u,99999999999999999999,10,10,1,0,0,0,\n",
		h + "\n0,u,9223372036854775808,10,10,1,0,0,0,\n",
		h + "\n0,u,-9223372036854775808,10,10,1,0,0,0,\n",
		h + "\n0,u,+0,+10,10,1,0,0,0,\n1,u,000000000000000000000001,10,10,1,0,0,0,+0\n",
		h + "\n\"0\",\"u\",\"0\",10,10,1,0,0,0,\"\"\n",
		h + "\n0,u,0,10,10,1,0,0,0,;\n",
		h + "\n0,u,0,10,10,1,0,0,0,\r",
		h + "\n0,u,0,10,10,1,0,0,0,\r\r\n",
		h + ",res:x,\"res:y,z\"\n0,u,0,10,10,1,0,0,0,,5,-1\n",
		h + ",\"res:\"\n",
		"\"id\",user,submit,runtime,walltime,nodes,bb_gb,ssd_gb_per_node,stageout,deps\n",
		"\"",
		"",
		h[:20] + "\n",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestCSVSourceMatchesReference: on the seed inputs and on generated
// traces, CSVSource and the encoding/csv oracle agree record by record.
func TestCSVSourceMatchesReference(t *testing.T) {
	for i, s := range csvSeeds(t) {
		t.Run(strconv.Itoa(i), func(t *testing.T) { checkCSVMatchesReference(t, s) })
	}
	var big bytes.Buffer
	w := Generate(GenConfig{System: testStreamSystem(), Jobs: 2000, Seed: 5, DependencyFraction: 0.2})
	if err := WriteCSV(&big, w.Jobs); err != nil {
		t.Fatal(err)
	}
	checkCSVMatchesReference(t, big.Bytes())
	// A line longer than the decoder's buffer.
	long := job.MustNew(0, 0, 10, 10, job.NewDemand(1, 0, 0))
	long.User = strings.Repeat("x", 10_000)
	big.Reset()
	if err := WriteCSV(&big, []*job.Job{long}); err != nil {
		t.Fatal(err)
	}
	checkCSVMatchesReference(t, big.Bytes())
	checkCSVMatchesReference(t, bytes.Replace(big.Bytes(), []byte("xx"), []byte("\"\n"), 1))
}

// TestOpenCSVMatchesReference: the same through OpenCSV, whose decoder
// reads the read-ahead ring through a buffer smaller than a line may be,
// on plain and gzipped files.
func TestOpenCSVMatchesReference(t *testing.T) {
	long := job.MustNew(0, 0, 10, 10, job.NewDemand(1, 0, 0))
	long.User = strings.Repeat("y", 10_000)
	var big bytes.Buffer
	if err := WriteCSV(&big, []*job.Job{long}); err != nil {
		t.Fatal(err)
	}
	inputs := append(csvSeeds(t), big.Bytes(), generatedCSV(t, 2000))
	for i, data := range inputs {
		for name, file := range map[string][]byte{"trace.csv": data, "trace.csv.gz": gzipped(t, data)} {
			t.Run(fmt.Sprintf("%d/%s", i, name), func(t *testing.T) {
				got, err := OpenCSV(writeFile(t, name, file))
				checkSourceMatchesReference(t, data, got, err)
			})
		}
	}
}

// FuzzCSVMatchesReference: on any input, CSVSource and the encoding/csv
// oracle agree on the header, on every job and on where an error stops
// the stream.
func FuzzCSVMatchesReference(f *testing.F) {
	for _, s := range csvSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkCSVMatchesReference)
}
