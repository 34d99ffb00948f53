package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"bbsched/internal/job"
)

// SWF support: the Standard Workload Format is the lingua franca of the
// parallel workloads archive (one line per job, 18 whitespace-separated
// fields, ';' comments). Importing SWF lets real public logs drive the
// simulator; burst-buffer demands — which SWF does not carry — can then be
// layered on with ExpandBB, exactly how the paper enhanced the Theta log
// with Darshan-derived request sizes.

// SWFOptions controls SWF import.
type SWFOptions struct {
	// CoresPerNode converts SWF processor counts to node counts (ceil
	// division). Zero means 1 (processors are nodes).
	CoresPerNode int
	// SkipFailed drops jobs whose SWF status is not 1 (completed);
	// cancelled/failed jobs often carry zero runtimes.
	SkipFailed bool
	// MaxJobs caps the import (0 = no cap).
	MaxJobs int
	// MemoryAsDim, when non-empty, maps the SWF requested-memory column
	// (KB per processor; falls back to used memory when absent) onto
	// extra resource dimension 0 as a total-KB demand (memory ×
	// processors, saturating at job.MaxDemand). Pair the import with a
	// system whose first extra resource spec carries this name.
	MemoryAsDim string
}

// swf field indices (0-based) per the SWF v2.2 definition.
const (
	swfJobID = iota
	swfSubmit
	swfWait
	swfRunTime
	swfUsedProcs
	swfAvgCPU
	swfUsedMem
	swfReqProcs
	swfReqTime
	swfReqMem
	swfStatus
	swfUserID
	swfGroupID
	swfExecutable
	swfQueue
	swfPartition
	swfPrecedingJob
	swfThinkTime
	swfNumFields
)

// ReadSWF parses an SWF log into jobs. Processor demands convert to nodes
// via opts.CoresPerNode; requested time becomes the walltime estimate
// (falling back to the actual runtime when absent, as archive logs often
// omit it); SWF "preceding job" links become dependencies when the
// referenced job exists in the import. It drains an SWFSource's records
// and adds what only a whole log allows: the preceding-job links, then a
// sort by submit time where the stream clamps. r is never closed.
func ReadSWF(r io.Reader, opts SWFOptions) ([]*job.Job, error) {
	src := NewSWFSource(struct{ io.Reader }{r}, opts)
	var jobs []*job.Job
	swfToOurs := map[int]int{} // SWF job number → our dense ID
	for {
		j, v, err := src.record()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if prev := int(v[swfPrecedingJob]); prev > 0 {
			if ours, ok := swfToOurs[prev]; ok {
				j.Deps = []int{ours}
			}
		}
		swfToOurs[int(v[swfJobID])] = j.ID
		jobs = append(jobs, j)
	}
	job.SortBySubmit(jobs)
	// Renumber in submit order, then re-point every dependency once through
	// the complete old→new map (remapping inside the renumbering loop would
	// chain: an ID rewritten early could be rewritten again).
	newID := make([]int, len(jobs))
	for i, j := range jobs {
		newID[j.ID] = i
		j.ID = i
	}
	for _, j := range jobs {
		for k, d := range j.Deps {
			j.Deps[k] = newID[d]
		}
	}
	if err := job.ValidateWorkload(jobs); err != nil {
		return nil, fmt.Errorf("trace: swf: %w", err)
	}
	return jobs, nil
}

// parseSWFFields parses one non-comment SWF line into v (len
// swfNumFields), with fuzz-hardened numeric handling: SWF is
// integer-valued but some archives emit floats (e.g. average CPU time), so
// fields parse through float; NaN is rejected; values clamp to
// ±job.MaxDemand before the float→int64 conversion, whose overflow
// behaviour is otherwise implementation-defined in Go (no SWF semantics
// exceed the demand cap).
func parseSWFFields(text string, v []int64) error {
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

// swfJob builds a job with the given dense ID from parsed SWF fields,
// applying the record-level conversions (opts.CoresPerNode is positive).
// A (nil, nil) return means the record is skipped: failed status under
// SkipFailed, non-positive runtime (cancelled before start), or zero width.
func swfJob(v []int64, id int, opts SWFOptions) (*job.Job, error) {
	if opts.SkipFailed && v[swfStatus] != 1 {
		return nil, nil
	}
	runtime := v[swfRunTime]
	if runtime <= 0 {
		return nil, nil
	}
	procs := v[swfReqProcs]
	if procs <= 0 {
		procs = v[swfUsedProcs]
	}
	if procs <= 0 {
		return nil, nil
	}
	cores := int64(opts.CoresPerNode)
	nodes := int((procs + cores - 1) / cores)
	walltime := v[swfReqTime]
	if walltime <= 0 {
		walltime = runtime
	}
	if walltime < runtime {
		// Production logs kill jobs at the limit; clamp so the model's
		// walltime >= runtime invariant holds.
		walltime = runtime
	}
	submit := v[swfSubmit]
	if submit < 0 {
		submit = 0
	}
	d := job.NewDemand(nodes, 0, 0)
	if opts.MemoryAsDim != "" {
		mem := v[swfReqMem]
		if mem <= 0 {
			mem = v[swfUsedMem]
		}
		if mem < 0 {
			mem = 0
		}
		d = job.NewDemandVector(nodes, 0, 0, saturatingMul(mem, procs))
	}
	j, err := job.New(id, submit, runtime, walltime, d)
	if err != nil {
		return nil, err
	}
	if uid := v[swfUserID]; uid >= 0 {
		j.User = fmt.Sprintf("user%03d", uid)
	}
	return j, nil
}

// saturatingMul multiplies non-negative a×b, clamping to job.MaxDemand so
// hostile or corrupt archive values can never overflow int64 demand math.
func saturatingMul(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > job.MaxDemand/b {
		return job.MaxDemand
	}
	if v := a * b; v <= job.MaxDemand {
		return v
	}
	return job.MaxDemand
}

// WriteSWF serializes jobs as SWF. Nodes export as processor counts times
// coresPerNode; burst-buffer and SSD demands have no SWF field and are
// dropped (use WriteCSV to preserve them).
func WriteSWF(w io.Writer, jobs []*job.Job, coresPerNode int) error {
	if coresPerNode <= 0 {
		coresPerNode = 1
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "; SWF export from bbsched (burst-buffer fields not representable)")
	fmt.Fprintf(bw, "; MaxProcs: unknown  UnixStartTime: 0\n")
	for _, j := range jobs {
		procs := int64(j.Demand.NodeCount()) * int64(coresPerNode)
		prev := int64(-1)
		if len(j.Deps) > 0 {
			prev = int64(j.Deps[0]) + 1 // SWF job numbers are 1-based
		}
		user := int64(-1)
		if n, err := strconv.ParseInt(strings.TrimPrefix(j.User, "user"), 10, 64); err == nil {
			user = n
		}
		// job submit wait run usedProcs avgCPU usedMem reqProcs reqTime
		// reqMem status uid gid exe queue partition preceding think
		fmt.Fprintf(bw, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d -1 -1 -1 -1 %d -1\n",
			j.ID+1, j.SubmitTime, j.Runtime, procs, procs, j.WalltimeEst, user, prev)
	}
	return bw.Flush()
}
