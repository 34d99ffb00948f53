package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bbsched/internal/job"
)

// The oracle for the SWF decoder's line parser: a line split by
// strings.Fields and each field parsed through strconv.ParseFloat, from a
// string per line. SWFSource must accept what referenceSWFSource accepts,
// reject what it rejects with the same error text, and build the same jobs
// from the same raw fields.

// referenceSWFSource is SWFSource's record loop over string lines.
type referenceSWFSource struct {
	sc      *bufio.Scanner
	opts    SWFOptions
	line    int
	emitted int
	fields  [swfNumFields]int64
	done    bool
}

func newReferenceSWFSource(r io.Reader, opts SWFOptions) *referenceSWFSource {
	opts.CoresPerNode = max(opts.CoresPerNode, 1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &referenceSWFSource{sc: sc, opts: opts}
}

func (s *referenceSWFSource) record() (*job.Job, *[swfNumFields]int64, error) {
	if s.done {
		return nil, nil, io.EOF
	}
	j, err := s.next()
	if err != nil {
		s.done = true
		return nil, nil, err
	}
	return j, &s.fields, nil
}

func (s *referenceSWFSource) next() (*job.Job, error) {
	for {
		if s.opts.MaxJobs > 0 && s.emitted >= s.opts.MaxJobs {
			return nil, io.EOF
		}
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				return nil, fmt.Errorf("trace: swf: %w", err)
			}
			return nil, io.EOF
		}
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		if err := referenceSWFFields(text, s.fields[:]); err != nil {
			return nil, fmt.Errorf("trace: swf line %d: %w", s.line, err)
		}
		j, err := swfJob(s.fields[:], s.emitted, s.opts)
		if err != nil {
			return nil, fmt.Errorf("trace: swf line %d: %w", s.line, err)
		}
		if j == nil {
			continue
		}
		if uid := s.fields[swfUserID]; uid >= 0 {
			j.User = fmt.Sprintf("user%03d", uid)
		}
		s.emitted++
		return j, nil
	}
}

// referenceSWFFields is the line parser SWFSource had before it split
// bytes in place: strings.Fields, then strconv.ParseFloat per field.
func referenceSWFFields(text string, v []int64) error {
	fields := strings.Fields(text)
	if len(fields) != swfNumFields {
		return fmt.Errorf("%d fields, want %d", len(fields), swfNumFields)
	}
	for i, f := range fields {
		fv, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("field %d: %w", i+1, err)
		}
		if math.IsNaN(fv) {
			return fmt.Errorf("field %d: NaN value", i+1)
		}
		if fv > float64(job.MaxDemand) {
			fv = float64(job.MaxDemand)
		} else if fv < -float64(job.MaxDemand) {
			fv = -float64(job.MaxDemand)
		}
		v[i] = int64(fv)
	}
	return nil
}

// checkSWFMatchesReference drains SWFSource and the oracle over data in
// lockstep: each record gives both the same job and raw fields, or both
// the same error, and both end at the same record.
func checkSWFMatchesReference(t *testing.T, data []byte, opts SWFOptions) {
	t.Helper()
	got := NewSWFSource(bytes.NewReader(data), opts)
	ref := newReferenceSWFSource(bytes.NewReader(data), opts)
	for i := 0; ; i++ {
		rj, rv, rerr := ref.record()
		gj, gv, gerr := got.record()
		if fmt.Sprint(gerr) != fmt.Sprint(rerr) {
			t.Fatalf("opts %+v, record %d: SWFSource error %v, oracle error %v", opts, i, gerr, rerr)
		}
		if rerr != nil {
			return
		}
		if !reflect.DeepEqual(gj, rj) || *gv != *rv {
			t.Fatalf("opts %+v, record %d: SWFSource job %+v from %v, oracle job %+v from %v", opts, i, gj, *gv, rj, *rv)
		}
	}
}

// swfSeeds are logs at the edges of the line parser: comments, blank and
// space-only lines, every ASCII space, Unicode spaces and invalid UTF-8,
// CRLF, a field short and a field over, floats, exponents, hex, signs,
// infinities, NaN and values past the demand cap.
func swfSeeds(t testing.TB) [][]byte {
	var log bytes.Buffer
	if err := WriteSWF(&log, Generate(GenConfig{System: testStreamSystem(), Jobs: 40, Seed: 6, DependencyFraction: 0.1}).Jobs, 4); err != nil {
		t.Fatal(err)
	}
	const rec = "1 0 -1 100 64 -1 2048 64 200 4096 1 3 -1 -1 -1 -1 -1 -1"
	seeds := [][]byte{log.Bytes()}
	for _, s := range []string{
		"; comment\n" + rec + "\n",
		"\n   \n\t\n" + rec + "\r\n" + "2 50 -1 60 8 -1 -1 8 60 -1 1 4 -1 -1 -1 -1 1 -1\r\n",
		"\t1\v0\f-1  100 64 -1 2048 64 200 4096 1 3 -1 -1 -1 -1 -1 -1 \r",
		"1 0 -1 100 64 -1 2048 64 200 4096 1 3 -1 -1 -1 -1 -1\u0085-1 \n",
		"1 0 -1 100 64 -1 2048 64 200 4096 1 3 -1 -1 -1 -1 -1\x85-1\n",
		"1 0 -1 100 64 -1 2048 64 200 4096 1 3 -1 -1 -1 -1 -1\n",
		rec + " -1\n",
		"x 0 -1 100 64 -1 2048 64 200 4096 1 3 -1 -1 -1 -1 -1\n",
		"1 0 -1 100 64 -1 2048 64 200 4096 1 3 -1 -1 -1 -1 -1 y\n",
		"x 0 -1 100 64 -1 2048 64 200 4096 1 3 -1 -1 -1 -1 -1 y\n",
		"1.5 0.0 -1.0 1e2 6.4e1 -1 2048.9 64 200 4096 1 3 -1 -1 -1 -1 -1 -1\n",
		"1 +0 -0 0x64 64 -1 -1 64 inf -Inf 1 3 -1 -1 -1 -1 -1 -1\n",
		"1 0 -1 100 64 -1 -1 64 NaN -1 1 3 -1 -1 -1 -1 -1 -1\n",
		"1 0 -1 1e300 99999999999999999999 -1e300 -1 9e18 200 -1 1 3 -1 -1 -1 -1 -1 -1\n",
		"1 -5 -1 100 9223372036854775807 -1 -1 64 200 -1 0 -1 -1 -1 -1 -1 -1 -1\n",
		"1 0 -1 100 64 -1 -1 64 200 -1 1 3 -1 -1 -1 -1 -1 1_0\n",
		"1 0 -1 0 64 -1 -1 64 200 -1 1 3 -1 -1 -1 -1 -1 -1\n" + rec + "\n",
		"",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// swfOptionsOf decodes a fuzzer's option bytes.
func swfOptionsOf(cores, flags uint8) SWFOptions {
	opts := SWFOptions{CoresPerNode: int(cores % 8), SkipFailed: flags&1 != 0, MaxJobs: int(flags >> 2)}
	if flags&2 != 0 {
		opts.MemoryAsDim = "mem_kb"
	}
	return opts
}

// FuzzSWFMatchesReference: on any log and options, SWFSource and the
// strings.Fields oracle agree on every job, its raw fields, and on where
// and with what text an error stops the stream.
func FuzzSWFMatchesReference(f *testing.F) {
	for _, s := range swfSeeds(f) {
		f.Add(s, uint8(0), uint8(0))
		f.Add(s, uint8(4), uint8(3|5<<2))
	}
	f.Fuzz(func(t *testing.T, data []byte, cores, flags uint8) {
		checkSWFMatchesReference(t, data, swfOptionsOf(cores, flags))
	})
}
