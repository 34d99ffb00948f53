package queue

// This file holds Policy and the built-in base-scheduler policies. A
// policy sees the queue's slots, not its jobs: one Prioritize call per
// scheduling pass runs the formula in a plain loop over flat keys.

import "fmt"

// Policy orders the waiting queue. Implementations must be deterministic.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Prioritize sets every slot's Prio to its job's priority at time now,
	// computed from the slot's Key; higher runs earlier. Ties are broken
	// FCFS (submit time, then ID). It writes nothing but Prio. A pass makes
	// one call for the whole queue, so the formula runs in a plain loop
	// over flat keys.
	Prioritize(slots []Slot, now int64)
}

// TimeInvariant marks a Policy whose priorities do not depend on now.
// The queue evaluates such a policy once per job, at Add time, and Rank
// never evaluates it again.
type TimeInvariant interface {
	// PriorityTimeInvariant is a marker; it is never called.
	PriorityTimeInvariant()
}

// FCFS orders jobs by arrival.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// Prioritize implements Policy: all jobs are equal, so the FCFS tie-break
// (submit time) decides the order.
func (FCFS) Prioritize(slots []Slot, _ int64) {
	for i := range slots {
		slots[i].Prio = 0
	}
}

// PriorityTimeInvariant implements TimeInvariant.
func (FCFS) PriorityTimeInvariant() {}

// WFP is ALCF's utility policy: priority grows with job size and with the
// cube of waiting time relative to the requested walltime, so large jobs
// and long-waiting jobs climb the queue (§2.1, [10,42]).
type WFP struct{}

// Name implements Policy.
func (WFP) Name() string { return "WFP" }

// Prioritize implements Policy. A non-positive walltime estimate (rejected
// by job validation, but representable on a hand-built Job) is clamped to
// one second so the ratio is always finite — previously wait == 0 with
// WalltimeEst == 0 produced 0/0 → NaN and leaned on Sorted's NaN→0
// patch-up.
func (WFP) Prioritize(slots []Slot, now int64) {
	for i := range slots {
		k := &slots[i]
		wait := float64(now - k.SubmitTime)
		if wait < 0 {
			wait = 0
		}
		est := float64(k.WalltimeEst)
		if est <= 0 {
			est = 1
		}
		r := wait / est
		k.Prio = float64(k.Nodes) * r * r * r
	}
}

// Multifactor approximates Slurm's multifactor priority plugin with its
// two site-universal terms: an age factor (wait time saturating at
// MaxAge) and a job-size factor (nodes relative to the machine), combined
// with configurable weights. QOS/fair-share terms are deliberately out of
// scope — §2.3 argues fair-share is not an HPC scheduling goal.
type Multifactor struct {
	// AgeWeight and SizeWeight scale the two factors (Slurm defaults give
	// age the larger weight; zero values fall back to 1000 and 100).
	AgeWeight, SizeWeight float64
	// MaxAgeSec saturates the age factor (default 7 days).
	MaxAgeSec int64
	// MachineNodes normalizes the size factor (default: raw node count).
	MachineNodes int
}

// Name implements Policy.
func (Multifactor) Name() string { return "Multifactor" }

// Prioritize implements Policy.
func (m Multifactor) Prioritize(slots []Slot, now int64) {
	ageW, sizeW := m.AgeWeight, m.SizeWeight
	if ageW == 0 {
		ageW = 1000
	}
	if sizeW == 0 {
		sizeW = 100
	}
	maxAge := m.MaxAgeSec
	if maxAge <= 0 {
		maxAge = 7 * 24 * 3600
	}
	for i := range slots {
		k := &slots[i]
		wait := now - k.SubmitTime
		if wait < 0 {
			wait = 0
		}
		if wait > maxAge {
			wait = maxAge
		}
		age := float64(wait) / float64(maxAge)
		size := float64(k.Nodes)
		if m.MachineNodes > 0 {
			size /= float64(m.MachineNodes)
		}
		k.Prio = ageW*age + sizeW*size
	}
}

// ByName returns the policy with the given name.
func ByName(name string) (Policy, error) {
	switch name {
	case "FCFS":
		return FCFS{}, nil
	case "WFP":
		return WFP{}, nil
	case "Multifactor":
		return Multifactor{}, nil
	default:
		return nil, fmt.Errorf("queue: unknown policy %q", name)
	}
}
