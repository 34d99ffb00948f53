package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"bbsched/internal/job"
)

// csvHeader is the fixed column prefix of the on-disk trace format, an
// SWF-like CSV with explicit multi-resource columns. Extra resource
// dimensions append one "res:<name>" column each after the fixed prefix,
// aligned to the cluster config's Extra specs; a file without res:
// columns is byte-identical to the pre-generalization format.
var csvHeader = []string{"id", "user", "submit", "runtime", "walltime", "nodes", "bb_gb", "ssd_gb_per_node", "stageout", "deps"}

// extraColPrefix marks an extra-resource-dimension column.
const extraColPrefix = "res:"

// WriteCSV serializes jobs to w in the repository's trace format. Each
// extraNames entry appends one "res:<name>" column carrying the jobs'
// demand in that extra dimension (in spec order). It is a loop over
// CSVWriter.
func WriteCSV(w io.Writer, jobs []*job.Job, extraNames ...string) error {
	cw := NewCSVWriter(w, extraNames...)
	for _, j := range jobs {
		if err := cw.Write(j); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// appendCSVHeader appends the header row for extraNames.
func appendCSVHeader(b []byte, extraNames []string) []byte {
	for i, col := range csvHeader {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVField(b, col)
	}
	for _, n := range extraNames {
		b = append(b, ',')
		b = appendCSVField(b, extraColPrefix+n)
	}
	return append(b, '\n')
}

// appendCSVRecord appends one job row.
func appendCSVRecord(b []byte, j *job.Job, nExtra int) []byte {
	b = strconv.AppendInt(b, int64(j.ID), 10)
	b = append(b, ',')
	b = appendCSVField(b, j.User)
	for _, v := range [...]int64{j.SubmitTime, j.Runtime, j.WalltimeEst, int64(j.Demand.NodeCount()),
		j.Demand.BB(), j.Demand.SSDPerNode(), j.StageOutSec} {
		b = append(b, ',')
		b = strconv.AppendInt(b, v, 10)
	}
	b = append(b, ',')
	for i, d := range j.Deps {
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	for k := 0; k < nExtra; k++ {
		b = append(b, ',')
		b = strconv.AppendInt(b, j.Demand.Extra(k), 10)
	}
	return append(b, '\n')
}

// appendCSVField appends a text field as encoding/csv's Writer writes
// it: in quotes, each quote doubled, exactly when fieldNeedsQuotes says.
func appendCSVField(b []byte, field string) []byte {
	if !fieldNeedsQuotes(field) {
		return append(b, field...)
	}
	b = append(b, '"')
	for i := strings.IndexByte(field, '"'); i >= 0; i = strings.IndexByte(field, '"') {
		b = append(b, field[:i+1]...)
		b = append(b, '"')
		field = field[i+1:]
	}
	b = append(b, field...)
	return append(b, '"')
}

// fieldNeedsQuotes is encoding/csv's rule for a comma-separated field:
// it holds a comma, quote, CR or LF, starts with a space, or is `\.`.
func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		if c := field[i]; c == '\n' || c == '\r' || c == '"' || c == ',' {
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// ReadCSV parses a trace written by WriteCSV and validates the workload,
// discarding the extra-dimension names (see ReadCSVNamed).
func ReadCSV(r io.Reader) ([]*job.Job, error) {
	jobs, _, err := ReadCSVNamed(r)
	return jobs, err
}

// ReadCSVNamed parses a trace written by WriteCSV, returning the jobs and
// the names of any extra resource dimensions found ("res:<name>" columns,
// in file order — the demand vector's extra indices align with it). It
// drains a CSVSource, so it holds the file to the stream's contract: dense
// IDs in submit order, deps on earlier jobs only. r is never closed.
func ReadCSVNamed(r io.Reader) ([]*job.Job, []string, error) {
	src, err := NewCSVSource(struct{ io.Reader }{r})
	if err != nil {
		return nil, nil, err
	}
	jobs, err := Collect(src)
	if err != nil {
		return nil, nil, err
	}
	return jobs, src.ExtraNames(), nil
}

// parseCSVHeader validates a header row and returns the extra-dimension
// names.
func parseCSVHeader(header []string) ([]string, error) {
	if len(header) < len(csvHeader) {
		return nil, fmt.Errorf("trace: header has %d columns, want at least %d", len(header), len(csvHeader))
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], col)
		}
	}
	var extraNames []string
	for _, col := range header[len(csvHeader):] {
		name := strings.TrimPrefix(col, extraColPrefix)
		if name == col || name == "" {
			return nil, fmt.Errorf("trace: extra header column %q must be %q-prefixed and named", col, extraColPrefix)
		}
		extraNames = append(extraNames, name)
	}
	return extraNames, nil
}

// parseInt is strconv.ParseInt(string(b), 10, 64) through strconv.Atoi,
// whose fast path parses a short number in place; only a value Atoi
// rejects goes on to ParseInt, for its value or its error.
func parseInt(b []byte) (int64, error) {
	if v, err := strconv.Atoi(string(b)); err == nil {
		return int64(v), nil
	}
	return strconv.ParseInt(string(b), 10, 64)
}
