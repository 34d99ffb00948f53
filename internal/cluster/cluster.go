// Package cluster models the schedulable state of an HPC machine: a pool of
// compute nodes, a shared burst-buffer pool, and optionally heterogeneous
// per-node local SSDs (the §5 case study: half the nodes carry 128 GB SSDs,
// half 256 GB).
//
// Nodes of equal SSD capacity are interchangeable, so the cluster tracks
// node *classes* (capacity, count) instead of individual nodes; this keeps
// feasibility checks O(#classes) even for 12,076-node systems and lets
// schedulers clone the whole free-state in a few words when evaluating
// candidate job sets.
//
// The cluster keeps the free pools only. What a job or reservation holds
// is the Allocation Allocate, ReserveBB or RestoreAllocation returned,
// which the caller owns and hands back to Release; CheckInvariants checks
// the pools against the allocations the caller says are live.
package cluster

import (
	"errors"
	"fmt"
	"iter"
	"sort"

	"bbsched/internal/job"
)

// SSDClass describes one group of identical nodes.
type SSDClass struct {
	// CapacityGB is the local SSD capacity of every node in this class.
	CapacityGB int64
	// Count is the number of nodes in the class.
	Count int
}

// ResourceSpec names one schedulable resource dimension and its machine
// capacity. The canonical node and burst-buffer dimensions have implicit
// specs derived from Config.Nodes/Config.BurstBufferGB; Config.Extra adds
// further pool-style dimensions (a power budget, NVRAM tier, network
// injection bandwidth, …) that jobs consume for their lifetime and release
// with their nodes.
type ResourceSpec struct {
	// Name identifies the dimension in demands, traces, and reports
	// (e.g. "power_kw"). Must be unique and non-empty.
	Name string
	// Capacity is the machine's total pool in the dimension's unit.
	Capacity int64
	// Unit labels the capacity for reports (e.g. "kW"); informational.
	Unit string
}

// Canonical resource dimension names, mirroring job.Resource order.
const (
	ResourceNodes = "nodes"
	ResourceBB    = "bb_gb"
	ResourceSSD   = "ssd_gb_per_node"
)

// Config describes a machine.
type Config struct {
	// Name labels the system in logs and experiment output.
	Name string
	// Nodes is the total compute-node count.
	Nodes int
	// BurstBufferGB is the shared burst-buffer pool size in GB.
	BurstBufferGB int64
	// SSDClasses partitions the nodes by local SSD capacity. Empty means
	// the machine has no local SSDs (all nodes form one class of capacity
	// zero). If non-empty, class counts must sum to Nodes.
	SSDClasses []SSDClass
	// Extra lists additional pool-style resource dimensions beyond the
	// canonical nodes/burst-buffer pair. Order is significant: extra
	// dimension i aligns with job.Demand extra index i.
	Extra []ResourceSpec
}

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster %q: non-positive node count %d", c.Name, c.Nodes)
	}
	if c.BurstBufferGB < 0 {
		return fmt.Errorf("cluster %q: negative burst buffer %d", c.Name, c.BurstBufferGB)
	}
	seen := map[string]bool{ResourceNodes: true, ResourceBB: true, ResourceSSD: true}
	for _, r := range c.Extra {
		if r.Name == "" {
			return fmt.Errorf("cluster %q: extra resource with empty name", c.Name)
		}
		if seen[r.Name] {
			return fmt.Errorf("cluster %q: duplicate resource name %q", c.Name, r.Name)
		}
		seen[r.Name] = true
		if r.Capacity < 0 {
			return fmt.Errorf("cluster %q: resource %q has negative capacity %d", c.Name, r.Name, r.Capacity)
		}
	}
	if len(c.SSDClasses) == 0 {
		return nil
	}
	total := 0
	for _, cl := range c.SSDClasses {
		if cl.CapacityGB < 0 {
			return fmt.Errorf("cluster %q: negative SSD capacity %d", c.Name, cl.CapacityGB)
		}
		if cl.Count <= 0 {
			return fmt.Errorf("cluster %q: non-positive class count %d", c.Name, cl.Count)
		}
		total += cl.Count
	}
	if total != c.Nodes {
		return fmt.Errorf("cluster %q: SSD class counts sum to %d, want %d", c.Name, total, c.Nodes)
	}
	return nil
}

// normClasses returns the node classes sorted by ascending SSD capacity,
// synthesizing a single zero-capacity class for SSD-less machines.
func (c Config) normClasses() []SSDClass {
	if len(c.SSDClasses) == 0 {
		return []SSDClass{{CapacityGB: 0, Count: c.Nodes}}
	}
	out := append([]SSDClass(nil), c.SSDClasses...)
	sort.Slice(out, func(i, j int) bool { return out[i].CapacityGB < out[j].CapacityGB })
	return out
}

// Allocation records the resources a running job, or a reservation,
// holds. Its holder keeps it and passes it back to Release.
type Allocation struct {
	// JobID identifies the job holding it; a reservation's is -1.
	JobID int
	// NodesByClass[i] is the number of nodes taken from class i.
	NodesByClass []int
	// BB is the shared burst buffer held, in GB.
	BB int64
	// WastedSSD is Σ over assigned nodes of (node SSD capacity − requested
	// per-node SSD), the per-job contribution to objective f4 (§5).
	WastedSSD int64
	// Extra[i] is the amount held in extra resource dimension i. Extra
	// dimensions are compute-coupled (a power draw, an NVRAM working set):
	// they release together with the nodes, not with a staged-out burst
	// buffer. Nil on machines without extra dimensions.
	Extra []int64
}

// TotalNodes returns the allocation's node count.
func (a Allocation) TotalNodes() int {
	n := 0
	for _, c := range a.NodesByClass {
		n += c
	}
	return n
}

// ErrNoFit is returned when a demand cannot be satisfied right now.
var ErrNoFit = errors.New("cluster: demand does not fit free resources")

// Cluster is the live machine state. It is not safe for concurrent use;
// the discrete-event simulator drives it from a single goroutine.
type Cluster struct {
	cfg     Config
	classes []SSDClass // normalized, ascending capacity
	free    Snapshot
	// nodeBufs recycles released allocations' NodesByClass buffers, so the
	// steady-state allocate/release cycle stops producing per-job garbage.
	nodeBufs [][]int
}

// New constructs a cluster, or returns the config validation error.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	classes := cfg.normClasses()
	free := Snapshot{
		FreeBB:        cfg.BurstBufferGB,
		FreeByClass:   make([]int, len(classes)),
		classCapacity: make([]int64, len(classes)),
	}
	for i, cl := range classes {
		free.FreeByClass[i] = cl.Count
		free.classCapacity[i] = cl.CapacityGB
	}
	if len(cfg.Extra) > 0 {
		free.FreeExtra = make([]int64, len(cfg.Extra))
		for i, r := range cfg.Extra {
			free.FreeExtra[i] = r.Capacity
		}
	}
	return &Cluster{cfg: cfg, classes: classes, free: free}, nil
}

// MustNew is New but panics on error; for tests and fixed experiment setups.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the machine description.
func (c *Cluster) Config() Config { return c.cfg }

// FreeNodes returns the currently idle node count.
func (c *Cluster) FreeNodes() int { return c.free.FreeNodes() }

// FreeBB returns the currently unallocated burst buffer in GB.
func (c *Cluster) FreeBB() int64 { return c.free.FreeBB }

// UsedNodes returns the node count currently allocated.
func (c *Cluster) UsedNodes() int { return c.cfg.Nodes - c.FreeNodes() }

// UsedBB returns the burst buffer currently allocated, in GB.
func (c *Cluster) UsedBB() int64 { return c.cfg.BurstBufferGB - c.free.FreeBB }

// NumExtra returns the number of extra resource dimensions.
func (c *Cluster) NumExtra() int { return len(c.cfg.Extra) }

// UsedExtras returns the currently allocated amount per extra dimension
// (nil when the machine has none).
func (c *Cluster) UsedExtras() []int64 {
	if len(c.cfg.Extra) == 0 {
		return nil
	}
	used := make([]int64, len(c.cfg.Extra))
	for i, r := range c.cfg.Extra {
		used[i] = r.Capacity - c.free.FreeExtra[i]
	}
	return used
}

// Snapshot returns a copy of the free state that schedulers may mutate
// freely while evaluating candidate job sets.
func (c *Cluster) Snapshot() Snapshot { return c.free.Clone() }

// CanFit reports whether the demand fits the currently free resources.
func (c *Cluster) CanFit(d job.Demand) bool {
	return c.free.CanFit(d)
}

// SnapshotInto copies the free state into dst, reusing its storage —
// the allocation-free Snapshot for pooled scheduling passes.
func (c *Cluster) SnapshotInto(dst *Snapshot) {
	dst.CopyFrom(c.free)
}

// Allocate assigns resources for j. It fails with ErrNoFit if the demand
// does not fit. The caller owns the returned allocation and hands it back
// to Release; its buffers are the cluster's, recycled once it is fully
// released, so they must not be kept past Release.
func (c *Cluster) Allocate(j *job.Job) (Allocation, error) {
	var buf []int
	if n := len(c.nodeBufs); n > 0 {
		buf = c.nodeBufs[n-1]
		c.nodeBufs = c.nodeBufs[:n-1]
	} else {
		buf = make([]int, len(c.free.FreeByClass))
	}
	placed, err := c.free.AllocInto(j.Demand, buf)
	if err != nil {
		c.nodeBufs = append(c.nodeBufs, buf)
		return Allocation{}, err
	}
	return Allocation{JobID: j.ID, NodesByClass: placed.NodesByClass, BB: j.Demand.BB(), WastedSSD: placed.WastedSSD, Extra: placed.Extra}, nil
}

// Release returns everything a still holds to the free pools and empties
// it, so releasing it again returns nothing.
func (c *Cluster) Release(a *Allocation) {
	c.ReleaseNodes(a)
	c.free.FreeBB += a.BB
	a.BB = 0
	if cap(a.NodesByClass) >= len(c.free.FreeByClass) {
		c.nodeBufs = append(c.nodeBufs, a.NodesByClass[:cap(a.NodesByClass)])
	}
	a.NodesByClass, a.Extra = nil, nil
}

// ReleaseNodes returns only a's compute nodes — and its extra dimensions,
// which are compute-coupled — keeping its burst buffer held. Models
// Slurm-style stage-out: data drains from the burst buffer to the
// parallel file system after the job's nodes are freed, so the BB
// allocation outlives the node allocation. Release finishes the job
// later. The released amounts are zeroed in a, so a second ReleaseNodes
// returns nothing.
func (c *Cluster) ReleaseNodes(a *Allocation) {
	for i, n := range a.NodesByClass {
		c.free.FreeByClass[i] += n
		a.NodesByClass[i] = 0
	}
	for i, v := range a.Extra {
		c.free.FreeExtra[i] += v
		a.Extra[i] = 0
	}
}

// ReserveBB allocates amount GB of burst buffer outside any job — Cori's
// persistent reservations (§4.1: one-third of the pool has
// job-independent lifetime). The caller holds the returned reservation
// like a job's allocation and may Release it.
func (c *Cluster) ReserveBB(amount int64) (Allocation, error) {
	if amount < 0 {
		return Allocation{}, fmt.Errorf("cluster: negative reservation %d", amount)
	}
	if amount > c.free.FreeBB {
		return Allocation{}, ErrNoFit
	}
	c.free.FreeBB -= amount
	return Allocation{JobID: -1, BB: amount}, nil
}

// RestoreAllocation installs a previously recorded allocation — the
// checkpoint/restore counterpart of Allocate. The record is validated
// (class/extra arity matching the machine, non-negative amounts, within
// the remaining free capacity), deep-copied into cluster-owned buffers,
// and subtracted from the free pools. As with Allocate, the caller holds
// the returned allocation, whose buffers are recycled on Release.
func (c *Cluster) RestoreAllocation(a Allocation) (Allocation, error) {
	if len(a.NodesByClass) != len(c.classes) {
		return Allocation{}, fmt.Errorf("cluster: job %d allocation spans %d classes, machine has %d",
			a.JobID, len(a.NodesByClass), len(c.classes))
	}
	if len(a.Extra) != 0 && len(a.Extra) != len(c.cfg.Extra) {
		return Allocation{}, fmt.Errorf("cluster: job %d allocation has %d extra dimensions, machine has %d",
			a.JobID, len(a.Extra), len(c.cfg.Extra))
	}
	if a.BB < 0 || a.BB > c.free.FreeBB {
		return Allocation{}, fmt.Errorf("cluster: job %d burst buffer %d outside free pool %d",
			a.JobID, a.BB, c.free.FreeBB)
	}
	for i, n := range a.NodesByClass {
		if n < 0 || n > c.free.FreeByClass[i] {
			return Allocation{}, fmt.Errorf("cluster: job %d takes %d nodes from class %d with %d free",
				a.JobID, n, i, c.free.FreeByClass[i])
		}
	}
	for i, v := range a.Extra {
		if v < 0 || v > c.free.FreeExtra[i] {
			return Allocation{}, fmt.Errorf("cluster: job %d takes %d of %s with %d free",
				a.JobID, v, c.cfg.Extra[i].Name, c.free.FreeExtra[i])
		}
	}
	stored := Allocation{
		JobID:        a.JobID,
		NodesByClass: append([]int(nil), a.NodesByClass...),
		BB:           a.BB,
		WastedSSD:    a.WastedSSD,
	}
	if len(a.Extra) > 0 {
		stored.Extra = append([]int64(nil), a.Extra...)
	}
	for i, n := range stored.NodesByClass {
		c.free.FreeByClass[i] -= n
	}
	c.free.FreeBB -= stored.BB
	for i, v := range stored.Extra {
		c.free.FreeExtra[i] -= v
	}
	return stored, nil
}

// CheckInvariants verifies conservation: free plus what the held
// allocations hold equals the machine totals in every dimension. held
// must yield every allocation not yet fully released, each once.
func (c *Cluster) CheckInvariants(held iter.Seq[Allocation]) error {
	usedByClass := make([]int, len(c.classes))
	usedExtra := make([]int64, len(c.cfg.Extra))
	var usedBB int64
	for a := range held {
		for i, n := range a.NodesByClass {
			usedByClass[i] += n
		}
		usedBB += a.BB
		for i, v := range a.Extra {
			usedExtra[i] += v
		}
	}
	for i, cl := range c.classes {
		if c.free.FreeByClass[i]+usedByClass[i] != cl.Count {
			return fmt.Errorf("class %d: free %d + used %d != total %d",
				i, c.free.FreeByClass[i], usedByClass[i], cl.Count)
		}
		if c.free.FreeByClass[i] < 0 {
			return fmt.Errorf("class %d: negative free count", i)
		}
	}
	if c.free.FreeBB+usedBB != c.cfg.BurstBufferGB {
		return fmt.Errorf("bb: free %d + used %d != total %d", c.free.FreeBB, usedBB, c.cfg.BurstBufferGB)
	}
	if c.free.FreeBB < 0 {
		return errors.New("bb: negative free")
	}
	for i, r := range c.cfg.Extra {
		if c.free.FreeExtra[i]+usedExtra[i] != r.Capacity {
			return fmt.Errorf("%s: free %d + used %d != total %d",
				r.Name, c.free.FreeExtra[i], usedExtra[i], r.Capacity)
		}
		if c.free.FreeExtra[i] < 0 {
			return fmt.Errorf("%s: negative free", r.Name)
		}
	}
	return nil
}

// Placement describes where a demand landed within a Snapshot.
type Placement struct {
	// NodesByClass[i] is the node count taken from class i.
	NodesByClass []int
	// WastedSSD is the assigned-minus-requested SSD volume in GB.
	WastedSSD int64
	// Extra[i] is the amount taken from extra dimension i (nil when the
	// machine has no extra dimensions or the demand requests none).
	Extra []int64
}

// Snapshot is a copyable view of free resources. Schedulers use it to test
// "what if we started this job set" without touching live cluster state.
type Snapshot struct {
	// FreeBB is the unallocated burst buffer in GB.
	FreeBB int64
	// FreeByClass is the free node count per class (ascending capacity).
	FreeByClass []int
	// FreeExtra is the unallocated amount per extra resource dimension,
	// aligned to the cluster config's Extra specs. Nil when the machine
	// has none.
	FreeExtra []int64
	// classCapacity mirrors the class SSD capacities.
	classCapacity []int64
}

// Clone returns an independent copy.
func (s Snapshot) Clone() Snapshot {
	c := s
	c.FreeByClass = append([]int(nil), s.FreeByClass...)
	if s.FreeExtra != nil {
		c.FreeExtra = append([]int64(nil), s.FreeExtra...)
	}
	// classCapacity is immutable after construction; sharing it is safe.
	return c
}

// CopyFrom makes s an independent copy of src, reusing s's storage where
// possible. Schedulers that evaluate thousands of candidate job sets per
// decision reset a pooled scratch snapshot this way instead of cloning a
// fresh one per candidate.
func (s *Snapshot) CopyFrom(src Snapshot) {
	s.FreeBB = src.FreeBB
	if cap(s.FreeByClass) < len(src.FreeByClass) {
		s.FreeByClass = make([]int, len(src.FreeByClass))
	}
	s.FreeByClass = s.FreeByClass[:len(src.FreeByClass)]
	copy(s.FreeByClass, src.FreeByClass)
	if src.FreeExtra == nil {
		s.FreeExtra = nil
	} else {
		if cap(s.FreeExtra) < len(src.FreeExtra) {
			s.FreeExtra = make([]int64, len(src.FreeExtra))
		}
		s.FreeExtra = s.FreeExtra[:len(src.FreeExtra)]
		copy(s.FreeExtra, src.FreeExtra)
	}
	s.classCapacity = src.classCapacity
}

// NumExtra returns the number of extra resource dimensions tracked.
func (s Snapshot) NumExtra() int { return len(s.FreeExtra) }

// FreeNodes returns the snapshot's total free node count.
func (s *Snapshot) FreeNodes() int {
	n := 0
	for _, c := range s.FreeByClass {
		n += c
	}
	return n
}

// ClassCapacity returns the SSD capacity of class i in GB.
func (s Snapshot) ClassCapacity(i int) int64 { return s.classCapacity[i] }

// NumClasses returns the number of node classes.
func (s Snapshot) NumClasses() int { return len(s.FreeByClass) }

// Alloc consumes the demand from the snapshot, choosing nodes from the
// smallest eligible SSD class first (the paper's §5 placement rule, which
// keeps big-SSD nodes for big requests and so mitigates wasted SSD). It
// returns the placement, or ErrNoFit leaving the snapshot unchanged.
func (s *Snapshot) Alloc(d job.Demand) (Placement, error) {
	return s.AllocInto(d, make([]int, len(s.FreeByClass)))
}

// AllocInto is Alloc writing the placement's per-class node counts into
// the caller-provided buffer (len >= NumClasses) instead of allocating
// one, for hot evaluation loops. The returned Placement references buf.
func (s *Snapshot) AllocInto(d job.Demand, buf []int) (Placement, error) {
	need := d.NodeCount()
	if need <= 0 {
		return Placement{}, fmt.Errorf("cluster: demand requests %d nodes", need)
	}
	if d.BB() > s.FreeBB {
		return Placement{}, ErrNoFit
	}
	for k := 0; k < d.NumExtra(); k++ {
		if k >= len(s.FreeExtra) {
			// A demand may carry trailing dimensions the machine lacks only
			// if it requests nothing there.
			if d.Extra(k) > 0 {
				return Placement{}, ErrNoFit
			}
			continue
		}
		if d.Extra(k) > s.FreeExtra[k] {
			return Placement{}, ErrNoFit
		}
	}
	placed := buf[:len(s.FreeByClass)]
	for i := range placed {
		placed[i] = 0
	}
	var wasted int64
	remaining := need
	for i := range s.FreeByClass {
		if s.classCapacity[i] < d.SSDPerNode() {
			continue // nodes in this class are too small for the request
		}
		take := min(remaining, s.FreeByClass[i])
		placed[i] = take
		wasted += int64(take) * (s.classCapacity[i] - d.SSDPerNode())
		remaining -= take
		if remaining == 0 {
			break
		}
	}
	if remaining > 0 {
		return Placement{}, ErrNoFit
	}
	for i, n := range placed {
		s.FreeByClass[i] -= n
	}
	s.FreeBB -= d.BB()
	pl := Placement{NodesByClass: placed, WastedSSD: wasted}
	if n := d.NumExtra(); n > 0 && len(s.FreeExtra) > 0 {
		if n > len(s.FreeExtra) {
			n = len(s.FreeExtra) // trailing machine-absent dims are zero (checked above)
		}
		pl.Extra = make([]int64, n)
		for k := 0; k < n; k++ {
			pl.Extra[k] = d.Extra(k)
			s.FreeExtra[k] -= pl.Extra[k]
		}
	}
	return pl, nil
}

// CanFit reports whether the demand would fit, without mutating the
// snapshot and without allocating. It mirrors Alloc's feasibility rule
// exactly: Alloc's smallest-eligible-class-first placement succeeds iff
// the eligible classes hold enough free nodes in aggregate.
func (s *Snapshot) CanFit(d job.Demand) bool {
	need := d.NodeCount()
	if need <= 0 {
		return false // Alloc rejects non-positive node demands
	}
	if d.BB() > s.FreeBB {
		return false
	}
	for k := 0; k < d.NumExtra(); k++ {
		if k >= len(s.FreeExtra) {
			if d.Extra(k) > 0 {
				return false
			}
			continue
		}
		if d.Extra(k) > s.FreeExtra[k] {
			return false
		}
	}
	for i := range s.FreeByClass {
		if s.classCapacity[i] < d.SSDPerNode() {
			continue
		}
		need -= s.FreeByClass[i]
		if need <= 0 {
			return true
		}
	}
	return false
}
