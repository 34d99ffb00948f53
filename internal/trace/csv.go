package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

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

// csvHeaderWith returns the header row for nExtra extra-dimension columns.
func csvHeaderWith(extraNames []string) []string {
	if len(extraNames) == 0 {
		return csvHeader
	}
	header := append(append([]string(nil), csvHeader...), make([]string, len(extraNames))...)
	for i, n := range extraNames {
		header[len(csvHeader)+i] = extraColPrefix + n
	}
	return header
}

// csvRecord serializes one job row.
func csvRecord(j *job.Job, nExtra int) []string {
	deps := make([]string, len(j.Deps))
	for i, d := range j.Deps {
		deps[i] = strconv.Itoa(d)
	}
	rec := []string{
		strconv.Itoa(j.ID),
		j.User,
		strconv.FormatInt(j.SubmitTime, 10),
		strconv.FormatInt(j.Runtime, 10),
		strconv.FormatInt(j.WalltimeEst, 10),
		strconv.Itoa(j.Demand.NodeCount()),
		strconv.FormatInt(j.Demand.BB(), 10),
		strconv.FormatInt(j.Demand.SSDPerNode(), 10),
		strconv.FormatInt(j.StageOutSec, 10),
		strings.Join(deps, ";"),
	}
	for k := 0; k < nExtra; k++ {
		rec = append(rec, strconv.FormatInt(j.Demand.Extra(k), 10))
	}
	return rec
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

func parseRecord(rec []string, nExtra int) (*job.Job, error) {
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
