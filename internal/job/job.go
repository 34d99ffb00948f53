// Package job defines the batch-job model shared by every subsystem: jobs
// with multi-resource demands (compute nodes, shared burst buffer, per-node
// local SSD), user runtime estimates and dependencies. A job is its trace
// record: once a trace builds it, it is read-only, and every run of the
// trace shares it. What happens to a job in one run — when it starts and
// ends, how long it waits in the window — lives in that run's engine.
//
// Units follow the paper: node counts are integers, burst buffer and local
// SSD are gibibyte-granular int64 values (GB in the paper's notation), and
// all times are integer seconds on the simulation clock.
package job

import (
	"errors"
	"fmt"
	"sort"
)

// Resource identifies one schedulable resource dimension: the three
// canonical dimensions below, then any number of cluster-defined extra
// dimensions at NumResources, NumResources+1, … (power caps, NVRAM tiers,
// network injection bandwidth — whatever the cluster's resource spec
// names).
type Resource int

const (
	// Nodes is the number of compute nodes a job needs.
	Nodes Resource = iota
	// BurstBufferGB is the shared burst-buffer demand in GB.
	BurstBufferGB
	// LocalSSDGBPerNode is the per-node local SSD demand in GB (§5).
	LocalSSDGBPerNode
	// NumResources is the count of canonical dimensions; extra dimensions
	// follow from this index in a Demand vector.
	NumResources
)

// MaxDemand bounds any single dimension's value. Far above every real
// machine (≈10^12 GB), it exists so aggregate arithmetic over a whole
// window of demands can never overflow int64.
const MaxDemand = int64(1) << 40

// String returns the resource's short name.
func (r Resource) String() string {
	switch r {
	case Nodes:
		return "nodes"
	case BurstBufferGB:
		return "bb_gb"
	case LocalSSDGBPerNode:
		return "ssd_gb_per_node"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// Demand is a job's requested amount of every schedulable resource: an
// ordered vector aligned to the cluster's resource dimensions. Res[0..2]
// are the canonical dimensions (nodes, shared burst buffer, per-node local
// SSD); Res[3:] aligns with the cluster config's extra resource specs.
// The zero Demand requests nothing; dimensions beyond len(Res) read as 0.
type Demand struct {
	// Res holds one requested amount per dimension.
	Res []int64
}

// NewDemand builds a Demand from the three canonical dimensions.
func NewDemand(nodes int, bbGB, ssdPerNodeGB int64) Demand {
	return Demand{Res: []int64{int64(nodes), bbGB, ssdPerNodeGB}}
}

// NewDemandVector builds a Demand from the canonical dimensions plus
// extra-dimension amounts aligned to the cluster's extra resource specs.
func NewDemandVector(nodes int, bbGB, ssdPerNodeGB int64, extra ...int64) Demand {
	res := make([]int64, NumResources+Resource(len(extra)))
	res[Nodes] = int64(nodes)
	res[BurstBufferGB] = bbGB
	res[LocalSSDGBPerNode] = ssdPerNodeGB
	copy(res[NumResources:], extra)
	return Demand{Res: res}
}

// Get returns dimension r, reading absent dimensions as zero.
func (d Demand) Get(r Resource) int64 {
	if int(r) < 0 || int(r) >= len(d.Res) {
		return 0
	}
	return d.Res[r]
}

// Set writes dimension r, growing the vector as needed.
func (d *Demand) Set(r Resource, v int64) {
	for len(d.Res) <= int(r) {
		d.Res = append(d.Res, 0)
	}
	d.Res[r] = v
}

// NumExtra returns the number of extra (non-canonical) dimensions carried.
func (d Demand) NumExtra() int {
	if len(d.Res) <= int(NumResources) {
		return 0
	}
	return len(d.Res) - int(NumResources)
}

// Extra returns extra dimension i (aligned to the cluster's extra resource
// specs), reading absent dimensions as zero.
func (d Demand) Extra(i int) int64 { return d.Get(NumResources + Resource(i)) }

// Extras returns a copy of the extra-dimension amounts.
func (d Demand) Extras() []int64 {
	if d.NumExtra() == 0 {
		return nil
	}
	return append([]int64(nil), d.Res[NumResources:]...)
}

// NodeCount returns the node dimension as an int.
func (d Demand) NodeCount() int { return int(d.Get(Nodes)) }

// BB returns the shared burst-buffer demand in GB.
func (d Demand) BB() int64 { return d.Get(BurstBufferGB) }

// SSDPerNode returns the per-node local SSD demand in GB.
func (d Demand) SSDPerNode() int64 { return d.Get(LocalSSDGBPerNode) }

// TotalSSD returns the aggregate local SSD demand (per-node demand times
// node count), the quantity objective f3 of the paper maximizes.
func (d Demand) TotalSSD() int64 { return d.Get(LocalSSDGBPerNode) * d.Get(Nodes) }

// Add returns d + o element-wise over max(len) dimensions.
func (d Demand) Add(o Demand) Demand {
	n := len(d.Res)
	if len(o.Res) > n {
		n = len(o.Res)
	}
	res := make([]int64, n)
	copy(res, d.Res)
	for i, v := range o.Res {
		res[i] += v
	}
	return Demand{Res: res}
}

// Clone returns an independent copy of the demand vector.
func (d Demand) Clone() Demand {
	if d.Res == nil {
		return Demand{}
	}
	return Demand{Res: append([]int64(nil), d.Res...)}
}

// Equal reports element-wise equality, with absent dimensions reading as
// zero (so a demand never touching an extra dimension equals one carrying
// an explicit zero there).
func (d Demand) Equal(o Demand) bool {
	n := len(d.Res)
	if len(o.Res) > n {
		n = len(o.Res)
	}
	for i := 0; i < n; i++ {
		if d.Get(Resource(i)) != o.Get(Resource(i)) {
			return false
		}
	}
	return true
}

// String renders the vector compactly for errors and logs.
func (d Demand) String() string {
	s := fmt.Sprintf("[nodes=%d bb_gb=%d ssd_gb_per_node=%d", d.Get(Nodes), d.Get(BurstBufferGB), d.Get(LocalSSDGBPerNode))
	for i := 0; i < d.NumExtra(); i++ {
		s += fmt.Sprintf(" extra%d=%d", i, d.Extra(i))
	}
	return s + "]"
}

// Validate reports whether every dimension is in [0, MaxDemand] and at
// least one node is requested.
func (d Demand) Validate() error {
	for i, v := range d.Res {
		if v < 0 {
			return fmt.Errorf("demand %s is negative: %d", Resource(i), v)
		}
		if v > MaxDemand {
			return fmt.Errorf("demand %s is %d, above the %d cap", Resource(i), v, MaxDemand)
		}
	}
	if d.Get(Nodes) == 0 {
		return errors.New("demand requests zero nodes")
	}
	return nil
}

// State is where a job is in one run, as a checkpoint records it: waiting
// (Queued, or InWindow) in the queue or the look-ahead buffer, Running
// while it holds an allocation, and Finished once it has ended but its
// burst buffer still drains.
type State int

const (
	// Queued means the job is waiting.
	Queued State = iota
	// InWindow means the job is in the scheduling window (§3.1).
	InWindow
	// Running means the job holds an allocation.
	Running
	// Finished means the job's compute phase has completed.
	Finished
)

// String returns the state's name.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case InWindow:
		return "in-window"
	case Running:
		return "running"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is a batch job as its trace describes it. It is read-only once the
// trace has built it: the engine, the queue and every method only read it,
// so one job is shared by every run, worker and restore of its workload,
// and a trace transform that changes a job hands on a changed copy.
type Job struct {
	// ID is unique within a workload and dense from 0 when generated.
	ID int
	// User is the submitting user (informational, used by fairness ablations).
	User string
	// SubmitTime is the submission instant in seconds.
	SubmitTime int64
	// Runtime is the job's actual runtime in seconds, known only to the
	// simulator (the scheduler sees WalltimeEst).
	Runtime int64
	// WalltimeEst is the user-provided runtime estimate in seconds;
	// always >= Runtime is NOT guaranteed (users under-estimate too), but
	// EASY backfilling plans with this value, as production schedulers do.
	WalltimeEst int64
	// Demand is the job's multi-resource request.
	Demand Demand
	// StageOutSec is how long the job's burst-buffer allocation persists
	// after the job ends, draining data to the parallel file system
	// (Slurm-style stage-out, [24]). Zero means the burst buffer releases
	// with the nodes.
	StageOutSec int64
	// Deps lists job IDs that must finish before this job may enter the
	// scheduling window (§3.1).
	Deps []int

	// State, StartTime and WindowAge are not the engine's: it neither
	// reads nor writes them, and keeps each run's state of a job in its
	// own containers. They remain only for the benchmark's queue probe,
	// which fills them from a snapshot record.
	State     State
	StartTime int64
	WindowAge int
}

// New constructs a validated job.
func New(id int, submit, runtime, walltime int64, d Demand) (*Job, error) {
	j := &Job{ID: id, SubmitTime: submit, Runtime: runtime, WalltimeEst: walltime, Demand: d}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// MustNew is New but panics on invalid input; for tests and literals.
func MustNew(id int, submit, runtime, walltime int64, d Demand) *Job {
	j, err := New(id, submit, runtime, walltime, d)
	if err != nil {
		panic(err)
	}
	return j
}

// Validate checks submission-time invariants.
func (j *Job) Validate() error {
	if j.SubmitTime < 0 {
		return fmt.Errorf("job %d: negative submit time %d", j.ID, j.SubmitTime)
	}
	if j.Runtime <= 0 {
		return fmt.Errorf("job %d: non-positive runtime %d", j.ID, j.Runtime)
	}
	if j.WalltimeEst <= 0 {
		return fmt.Errorf("job %d: non-positive walltime estimate %d", j.ID, j.WalltimeEst)
	}
	if err := j.Demand.Validate(); err != nil {
		return fmt.Errorf("job %d: %w", j.ID, err)
	}
	if j.StageOutSec < 0 {
		return fmt.Errorf("job %d: negative stage-out %d", j.ID, j.StageOutSec)
	}
	if j.StageOutSec > 0 && j.Demand.BB() == 0 {
		return fmt.Errorf("job %d: stage-out without a burst-buffer request", j.ID)
	}
	for _, d := range j.Deps {
		if d == j.ID {
			return fmt.Errorf("job %d: depends on itself", j.ID)
		}
	}
	return nil
}

// Clone returns a deep copy (Deps and the demand vector included), for a
// trace transform that derives changed jobs from a workload's.
func (j *Job) Clone() *Job {
	c := *j
	c.Demand = j.Demand.Clone()
	if j.Deps != nil {
		c.Deps = append([]int(nil), j.Deps...)
	}
	return &c
}

// CloneAll deep-copies a workload.
func CloneAll(jobs []*Job) []*Job {
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.Clone()
	}
	return out
}

// SortBySubmit orders jobs by submission time (stable; ties by ID).
func SortBySubmit(jobs []*Job) {
	sort.SliceStable(jobs, func(a, b int) bool {
		if jobs[a].SubmitTime != jobs[b].SubmitTime {
			return jobs[a].SubmitTime < jobs[b].SubmitTime
		}
		return jobs[a].ID < jobs[b].ID
	})
}

// ValidateWorkload checks a whole trace: unique IDs, valid jobs, and
// dependencies that reference existing jobs submitted no later than the
// dependent job.
func ValidateWorkload(jobs []*Job) error {
	byID := make(map[int]*Job, len(jobs))
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if _, dup := byID[j.ID]; dup {
			return fmt.Errorf("duplicate job id %d", j.ID)
		}
		byID[j.ID] = j
	}
	for _, j := range jobs {
		for _, dep := range j.Deps {
			d, ok := byID[dep]
			if !ok {
				return fmt.Errorf("job %d depends on unknown job %d", j.ID, dep)
			}
			if d.SubmitTime > j.SubmitTime {
				return fmt.Errorf("job %d depends on job %d submitted later", j.ID, dep)
			}
		}
	}
	return nil
}
