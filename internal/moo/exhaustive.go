package moo

import (
	"fmt"
	"math/bits"
)

// MaxExhaustiveDim bounds SolveExhaustive: 2^w candidate enumeration
// becomes impractical beyond ~2^26 even at nanoseconds per evaluation,
// which is exactly the point Fig. 2 makes.
const MaxExhaustiveDim = 26

// SolveExhaustive enumerates all 2^w bit vectors, evaluates each, and
// returns the exact Pareto front of the feasible solutions, keeping one
// representative selection per distinct objective vector (many selections
// tie in objective space; the front is a set of objective points, so one
// witness each suffices and bounds memory). It is the reference solver for
// generational-distance measurements (Fig. 4) and the exhaustive curve in
// Fig. 2.
func SolveExhaustive(p Problem) ([]Solution, error) {
	dim := p.Dim()
	if dim <= 0 {
		return nil, fmt.Errorf("moo: problem dimension %d", dim)
	}
	if dim > MaxExhaustiveDim {
		return nil, fmt.Errorf("moo: exhaustive search over 2^%d solutions exceeds the %d-bit cap", dim, MaxExhaustiveDim)
	}
	vars := make([]int, dim)
	for i := range vars {
		vars[i] = i
	}
	g := NewGenome(dim)
	points := paretoOver(p, g, vars, false, nil)
	front := make([]Solution, len(points))
	for i, pt := range points {
		g.w[0] = pt.mask // vars is the identity and dim ≤ 64: the mask is the genome's one word
		front[i] = Solution{Genome: g.Clone(), Objectives: append([]float64(nil), pt.objs...)}
	}
	SortLexicographic(front)
	return front, nil
}

// point is one selection an enumeration kept: bit k of mask selects the
// k-th enumerated variable.
type point struct {
	mask uint64
	objs []float64
}

// paretoOver is moo's one exhaustive routine, behind SolveExhaustive (all
// variables) and the GA's termination certificate (the variables that can
// be selected at all). It evaluates every selection over vars — at most 63
// of them; every other variable stays unselected — through p, and appends
// to front the feasible ones no feasible one dominates. With ties, every
// selection is kept whose objective vector equals a kept one's; without,
// the first such selection enumerated stands for them all. g is scratch of
// p's dimension, all zero on entry and not on return. The running list is
// mutually non-dominated at every step, so memory follows the front, not
// 2^len(vars); the objective slices are the ones Evaluate returned.
func paretoOver(p Problem, g Genome, vars []int, ties bool, front []point) []point {
	total := uint64(1) << uint(len(vars))
	for mask := uint64(0); ; {
		if objs, ok := p.Evaluate(g); ok {
			front = admit(front, point{mask, objs}, ties)
		}
		if mask++; mask == total {
			return front
		}
		// Binary increment: the low run of ones clears and the next bit sets.
		low := bits.TrailingZeros64(mask)
		for k := 0; k < low; k++ {
			g.SetBit(vars[k], false)
		}
		g.SetBit(vars[low], true)
	}
}

// admit adds pt to a mutually non-dominated list unless a member dominates
// it (or, without ties, equals it), evicting the members pt dominates.
// When pt loses, nothing is evicted: a member pt dominated would be
// dominated by the member that beat pt.
func admit(front []point, pt point, ties bool) []point {
	for _, f := range front {
		if Dominates(f.objs, pt.objs) || (!ties && equalObjs(f.objs, pt.objs)) {
			return front
		}
	}
	keep := front[:0]
	for _, f := range front {
		if !Dominates(pt.objs, f.objs) {
			keep = append(keep, f)
		}
	}
	return append(keep, pt)
}

func equalObjs(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
