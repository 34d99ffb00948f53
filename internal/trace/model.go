// Package trace models HPC workloads: parameterized statistical generators
// that stand in for the paper's (non-public) Cori and Theta logs, the
// synthetic S1–S4 burst-buffer expansions and S5–S7 local-SSD variants of
// §4.1/§5, burst-buffer request histograms (Fig. 5), and a CSV trace format
// for persisting workloads.
//
// Substitution note (see DESIGN.md): the real Slurm/Darshan logs are not
// public, so generators are calibrated to every trait the paper documents —
// system sizes, burst-buffer ranges, fraction of BB-requesting jobs, and the
// capacity-vs-capability job-size mix — and expose the same knobs the
// paper's own synthetic expansion used.
package trace

import (
	"fmt"
	"sort"

	"bbsched/internal/cluster"
	"bbsched/internal/job"
)

// BasePolicy identifies the base scheduler ordering policy of a system.
type BasePolicy string

const (
	// FCFS orders jobs by arrival (Cori / Slurm default).
	FCFS BasePolicy = "FCFS"
	// WFP is ALCF's utility policy favoring large, long-waiting jobs
	// relative to their requested walltime (Theta / Cobalt).
	WFP BasePolicy = "WFP"
)

// SystemModel describes a machine plus the workload character it runs.
type SystemModel struct {
	// Cluster is the machine description handed to the simulator.
	Cluster cluster.Config
	// Policy is the base scheduler ordering policy used on this system.
	Policy BasePolicy
	// Capability is true for capability-computing systems (few large jobs,
	// Theta) and false for capacity systems (many small jobs, Cori).
	Capability bool
	// MaxBBRequestGB bounds generated burst-buffer requests.
	MaxBBRequestGB int64
	// BBFraction is the fraction of jobs requesting any burst buffer in
	// the original (unexpanded) workload.
	BBFraction float64
	// PersistentBBGB is burst buffer carved out as persistent, job-
	// independent reservations at simulation start (§4.1: one-third of
	// Cori's pool is persistently reserved). Zero means none.
	PersistentBBGB int64
}

const (
	tb = int64(1000) // GB per TB, matching the paper's decimal units

	// CoriNodes and CoriBBGB reproduce Table 2.
	CoriNodes = 12076
	CoriBBGB  = 1800 * tb // 1.8 PB
	// ThetaNodes is Theta's KNL node count; ThetaBBGB is the paper's
	// projected 2.16 PB shared burst buffer.
	ThetaNodes = 4392
	ThetaBBGB  = 2160 * tb
)

// Cori returns the full-scale Cori model (capacity computing, Slurm/FCFS,
// 12,076 nodes, 1.8 PB shared burst buffer, BB requests in [1 GB, 165 TB],
// 0.618% of jobs requesting burst buffer).
func Cori() SystemModel {
	return SystemModel{
		Cluster:        cluster.Config{Name: "Cori", Nodes: CoriNodes, BurstBufferGB: CoriBBGB},
		Policy:         FCFS,
		Capability:     false,
		MaxBBRequestGB: 165 * tb,
		BBFraction:     0.00618,
	}
}

// Theta returns the full-scale Theta model (capability computing,
// Cobalt/WFP, 4,392 nodes, 2.16 PB projected shared burst buffer, BB
// requests in [1 GB, 285 TB], 17.18% of jobs with >1 GB Darshan I/O).
func Theta() SystemModel {
	return SystemModel{
		Cluster:        cluster.Config{Name: "Theta", Nodes: ThetaNodes, BurstBufferGB: ThetaBBGB},
		Policy:         WFP,
		Capability:     true,
		MaxBBRequestGB: 285 * tb,
		BBFraction:     0.1718,
	}
}

// Scale returns a copy of m with node count and burst buffer scaled by
// 1/factor (minimum one node). Experiments use scaled systems to keep CI
// runtimes short while preserving the job-size-to-machine-size ratios.
func Scale(m SystemModel, factor int) SystemModel {
	if factor <= 1 {
		return m
	}
	out := m
	out.Cluster.Name = fmt.Sprintf("%s/%d", m.Cluster.Name, factor)
	out.Cluster.Nodes = maxInt(1, m.Cluster.Nodes/factor)
	out.Cluster.BurstBufferGB = m.Cluster.BurstBufferGB / int64(factor)
	out.MaxBBRequestGB = m.MaxBBRequestGB / int64(factor)
	out.PersistentBBGB = m.PersistentBBGB / int64(factor)
	// A scaled machine runs far fewer concurrent jobs, so proportionally
	// scaled requests could never saturate the pool the way the full-size
	// traces do. Keep the maximum request at least a quarter of the
	// (scaled) pool so the S3/S4 burst-buffer-bound regime stays
	// reachable; DESIGN.md records this substitution.
	if floor := out.Cluster.BurstBufferGB / 4; out.MaxBBRequestGB < floor {
		out.MaxBBRequestGB = floor
	}
	if len(m.Cluster.Extra) > 0 {
		extra := make([]cluster.ResourceSpec, len(m.Cluster.Extra))
		copy(extra, m.Cluster.Extra)
		for i := range extra {
			if extra[i].Capacity = extra[i].Capacity / int64(factor); extra[i].Capacity < 1 {
				extra[i].Capacity = 1
			}
		}
		out.Cluster.Extra = extra
	}
	if len(m.Cluster.SSDClasses) > 0 {
		classes := make([]cluster.SSDClass, len(m.Cluster.SSDClasses))
		copy(classes, m.Cluster.SSDClasses)
		total := 0
		for i := range classes {
			classes[i].Count = maxInt(1, classes[i].Count/factor)
			total += classes[i].Count
		}
		out.Cluster.SSDClasses = classes
		out.Cluster.Nodes = total
	}
	return out
}

// WithPersistentBB returns a copy of m with frac of its burst-buffer pool
// persistently reserved (Cori reserves one-third, §4.1). The reservation
// is job-independent: the simulator takes it at t=0 and never releases it,
// shrinking the schedulable pool while usage metrics stay relative to the
// full pool, as the paper reports them.
func WithPersistentBB(m SystemModel, frac float64) SystemModel {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	out := m
	out.PersistentBBGB = int64(frac * float64(m.Cluster.BurstBufferGB))
	return out
}

// WithExtraResource returns a copy of m whose cluster gains one extra
// pool-style resource dimension (a power budget, NVRAM tier, network
// injection bandwidth, …). Dimension order is append order; jobs address
// it as extra index len(Extra)-1.
func WithExtraResource(m SystemModel, spec cluster.ResourceSpec) SystemModel {
	out := m
	extra := make([]cluster.ResourceSpec, 0, len(m.Cluster.Extra)+1)
	extra = append(extra, m.Cluster.Extra...)
	out.Cluster.Extra = append(extra, spec)
	return out
}

// WithSSD returns a copy of m whose nodes are split into two local-SSD
// classes per the §5 case study: half 128 GB, half 256 GB.
func WithSSD(m SystemModel) SystemModel {
	out := m
	n := m.Cluster.Nodes
	small := n / 2
	out.Cluster.SSDClasses = []cluster.SSDClass{
		{CapacityGB: 128, Count: small},
		{CapacityGB: 256, Count: n - small},
	}
	return out
}

// Workload couples a job list with the system it targets.
type Workload struct {
	// Name identifies the workload in experiment output, e.g. "Theta-S4".
	Name string
	// System is the machine model the workload was generated for.
	System SystemModel
	// Jobs is ordered by submission time.
	Jobs []*job.Job
}

// Clone deep-copies the workload so repeated simulations never share
// mutable job state.
func (w Workload) Clone() Workload {
	return Workload{Name: w.Name, System: w.System, Jobs: job.CloneAll(w.Jobs)}
}

// Validate checks the workload against the JobSource contract — valid
// jobs in non-decreasing submit order, IDs dense in that order, deps on
// earlier IDs only — and the machine, so a workload that validates is
// exactly one that streams (SourceOf) without a mid-run contract error.
func (w Workload) Validate() error {
	if err := w.System.Cluster.Validate(); err != nil {
		return err
	}
	empty, err := cluster.New(w.System.Cluster)
	if err != nil {
		return err
	}
	for i, j := range w.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if j.ID != i {
			return fmt.Errorf("workload %s: job ID %d breaks the dense submit-order sequence (want %d)", w.Name, j.ID, i)
		}
		if i > 0 && j.SubmitTime < w.Jobs[i-1].SubmitTime {
			return fmt.Errorf("workload %s: job %d submits at %d, before previous job's %d", w.Name, j.ID, j.SubmitTime, w.Jobs[i-1].SubmitTime)
		}
		for _, d := range j.Deps {
			if d < 0 || d >= j.ID {
				return fmt.Errorf("workload %s: job %d dep %d does not reference an earlier job", w.Name, j.ID, d)
			}
		}
		if j.Demand.NodeCount() > w.System.Cluster.Nodes {
			return fmt.Errorf("workload %s: job %d requests %d nodes on a %d-node system",
				w.Name, j.ID, j.Demand.NodeCount(), w.System.Cluster.Nodes)
		}
		// The job must fit an empty machine in every dimension (SSD class
		// eligibility included) or it can never be scheduled.
		if !empty.CanFit(j.Demand) {
			return fmt.Errorf("workload %s: job %d demand %v cannot fit the empty machine",
				w.Name, j.ID, j.Demand)
		}
	}
	return nil
}

// Stats summarizes a workload for reports and Fig. 5 captions.
type Stats struct {
	// Jobs is the job count.
	Jobs int
	// BBJobs is the number of jobs with a non-zero burst-buffer request.
	BBJobs int
	// TotalBBGB is the aggregate requested burst-buffer volume (the
	// parenthesized number in Fig. 5).
	TotalBBGB int64
	// TotalNodeSeconds is Σ nodes×runtime, the offered compute load.
	TotalNodeSeconds int64
	// MaxBBGB is the largest single burst-buffer request.
	MaxBBGB int64
	// MedianNodes is the median job node count.
	MedianNodes int
	// HorizonSec is the last submission time.
	HorizonSec int64
}

// ComputeStats summarizes jobs.
func ComputeStats(jobs []*job.Job) Stats {
	var s Stats
	s.Jobs = len(jobs)
	nodes := make([]int, 0, len(jobs))
	for _, j := range jobs {
		if bb := j.Demand.BB(); bb > 0 {
			s.BBJobs++
			s.TotalBBGB += bb
			if bb > s.MaxBBGB {
				s.MaxBBGB = bb
			}
		}
		s.TotalNodeSeconds += int64(j.Demand.NodeCount()) * j.Runtime
		nodes = append(nodes, j.Demand.NodeCount())
		if j.SubmitTime > s.HorizonSec {
			s.HorizonSec = j.SubmitTime
		}
	}
	if len(nodes) > 0 {
		sort.Ints(nodes)
		s.MedianNodes = nodes[len(nodes)/2]
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
