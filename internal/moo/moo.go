// Package moo implements the multi-objective optimization machinery of
// BBSched §3.2: packed-bitset solution encoding (Genome), Pareto
// dominance and front extraction, the paper's multi-objective genetic
// algorithm (single-point crossover, bit-flip mutation, age-based
// Set1/Set2 selection), an exhaustive 2^w reference solver, and
// solution-quality metrics (generational distance, hypervolume).
//
// The GA evaluates through a genome-memoizing Evaluator, which is also its
// intern table: each distinct genome gets a dense id at first lookup, and
// the generation loop runs on (id, age) members — genotype equality,
// deduplication and Pareto domination are per id, computed once for all
// copies of a genotype — materialising Solutions only for the front it
// returns. The loop's buffers are parked on the Evaluator between solves.
//
// The GA stops when its answer is settled: for a problem that declares
// which variables can be selected at all (LiveSetter), the exact Pareto
// set over those variables certifies the generation after which nothing
// SolveGA returns can change, and the run ends there (see SolveGA for the
// proof and for when no certificate exists). It comes from the routine
// behind SolveExhaustive, which walks all 2^w selections; for the
// certificate the walk extends feasible selections only, and gives up
// past G·P evaluations over at most G·P selections, past G over more.
//
// All objectives are maximized. Minimization objectives (e.g. wasted local
// SSD, §5's f4) are expressed by negating the value, exactly as the paper
// writes f4 with a leading minus sign.
package moo

import (
	"fmt"
	"math"
	"sort"
)

// Problem is a pseudo-boolean multi-objective maximization problem over
// packed bit-vector genomes of fixed dimension. A solve calls a problem
// from one goroutine. Implementations must not retain or mutate the
// genome argument (solvers pass reused scratch buffers).
type Problem interface {
	// Dim is the solution bit-vector length (the scheduling window size).
	Dim() int
	// NumObjectives is the number of simultaneously maximized objectives.
	NumObjectives() int
	// Evaluate returns the objective vector for g and whether the
	// solution satisfies all resource constraints. Objective values of
	// infeasible solutions are ignored by the solvers.
	Evaluate(g Genome) (objs []float64, feasible bool)
}

// Repairer is an optional Problem extension: Repair mutates g in place
// into a feasible solution (typically by deselecting jobs until the
// constraints hold). Solvers use it to keep populations feasible instead
// of discarding constraint violators.
type Repairer interface {
	Repair(g Genome, drop func(n int) int)
}

// LiveSetter is an optional Problem extension for problems whose
// constraints only tighten as variables are selected: selecting one more
// variable never makes an infeasible genome feasible. So a variable that
// is infeasible selected alone is infeasible in every selection, and no
// genome that holds an infeasible one is feasible — which lets SolveGA
// walk only the feasible selections to learn when its answer is settled
// (see there). A problem that cannot give the guarantee (negative
// demands, say) reports !ok, or does not implement the interface, and
// loses nothing but that.
type LiveSetter interface {
	// LiveSet appends to dst the variables i whose one-variable genome
	// {i} is feasible under Evaluate, in ascending order. ok promises the
	// monotonicity above, and so that every feasible genome selects
	// variables from that list only.
	LiveSet(dst []int) (live []int, ok bool)
}

// Solution is an evaluated candidate.
type Solution struct {
	// Genome is the selection vector; gene i selects window job i. It
	// must not be mutated after the solution is evaluated (solutions from
	// one solve share canonical genome storage, and Key caches a digest).
	Genome Genome
	// Objectives is the evaluated objective vector (maximization). Like
	// Genome it may be shared between solutions and must not be mutated.
	Objectives []float64
	// Age counts the generations survived when the solve stopped (paper
	// §3.2.2: selection prefers newer chromosomes, i.e. smaller Age). A
	// solve that stops on its certificate (see SolveGA) reports smaller
	// ages than one that runs all G generations; nothing else differs.
	Age int

	// key caches Key(), built on first use: sorting a front needs it only
	// to break a tie between equal objective vectors.
	key string
}

// Clone deep-copies the solution.
func (s Solution) Clone() Solution {
	c := s
	c.Genome = s.Genome.Clone()
	c.Objectives = append([]float64(nil), s.Objectives...)
	return c
}

// Key returns a compact digest of the genome, for deduplication.
func (s *Solution) Key() string {
	if s.key == "" && s.Genome.Len() > 0 {
		s.key = s.Genome.Key()
	}
	return s.key
}

// Dominates reports whether objective vector a Pareto-dominates b under
// maximization: a is no worse in every objective and strictly better in at
// least one. Vectors must have equal length. A NaN is never "no worse",
// so a vector holding one neither dominates nor is dominated. The body is
// one loop for every objective count, so it inlines into the solver's hot
// loops: a two-objective case beside a call for the rest would not fit
// the compiler's inlining budget.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(dimMismatch{len(a), len(b)})
	}
	strict := false
	for i, x := range a {
		if !(x >= b[i]) {
			return false
		}
		strict = strict || x > b[i]
	}
	return strict
}

// dimMismatch is Dominates' panic value; a value rather than a formatted
// string, so that Dominates makes no call.
type dimMismatch struct{ a, b int }

func (d dimMismatch) Error() string {
	return fmt.Sprintf("moo: dominance between %d- and %d-dim vectors", d.a, d.b)
}

// dominatedFlags marks solutions dominated by some other pool member.
func dominatedFlags(sols []Solution) []bool {
	dominated := make([]bool, len(sols))
	for i := range sols {
		for j := range sols {
			if i == j {
				continue
			}
			if Dominates(sols[j].Objectives, sols[i].Objectives) {
				dominated[i] = true
				break
			}
		}
	}
	return dominated
}

// ParetoFilter returns the non-dominated subset of solutions. Duplicate
// objective vectors are all retained (callers dedupe by Key if needed).
// The input is not modified; the result shares Solution values.
func ParetoFilter(sols []Solution) []Solution {
	dominated := dominatedFlags(sols)
	var front []Solution
	for i, d := range dominated {
		if !d {
			front = append(front, sols[i])
		}
	}
	return front
}

// DedupeByBits keeps the first solution for each distinct bit vector.
func DedupeByBits(sols []Solution) []Solution {
	seen := make(map[string]bool, len(sols))
	out := sols[:0:0]
	for _, s := range sols {
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// SortLexicographic orders solutions by descending objective 0, then 1, …
// then by bit-vector key; used to make experiment output stable.
func SortLexicographic(sols []Solution) {
	sort.Slice(sols, func(i, j int) bool {
		a, b := sols[i].Objectives, sols[j].Objectives
		for k := range a {
			if a[k] != b[k] {
				return a[k] > b[k]
			}
		}
		return sols[i].Key() < sols[j].Key()
	})
}

// GenerationalDistance is the paper's §3.2.3 accuracy metric: the average
// Euclidean distance in objective space from each solution of approx to its
// nearest member of the reference (true) front. Zero means the
// approximation lies on the reference front. It panics on an empty
// reference front; an empty approximation yields 0.
func GenerationalDistance(approx, ref []Solution) float64 {
	if len(ref) == 0 {
		panic("moo: generational distance against empty reference front")
	}
	if len(approx) == 0 {
		return 0
	}
	var sum float64
	for _, u := range approx {
		best := math.Inf(1)
		for _, v := range ref {
			if d := euclid(u.Objectives, v.Objectives); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(approx))
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Hypervolume2D returns the area dominated by a two-objective front
// relative to reference point (refX, refY) (which must be dominated by
// every front member). Used by ablation benches to compare fronts with a
// single scalar. Panics unless every solution has exactly two objectives.
func Hypervolume2D(front []Solution, refX, refY float64) float64 {
	if len(front) == 0 {
		return 0
	}
	pts := make([][2]float64, 0, len(front))
	for _, s := range front {
		if len(s.Objectives) != 2 {
			panic("moo: Hypervolume2D needs exactly two objectives")
		}
		pts = append(pts, [2]float64{s.Objectives[0], s.Objectives[1]})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i][0] > pts[j][0] })
	var hv float64
	prevY := refY
	for _, p := range pts {
		if p[1] <= prevY {
			continue // dominated in y by a point with larger x
		}
		hv += (p[0] - refX) * (p[1] - prevY)
		prevY = p[1]
	}
	return hv
}
