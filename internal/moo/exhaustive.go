package moo

import (
	"fmt"
	"math"
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
	points, _ := paretoOver(p, g, vars, false, math.MaxInt, nil)
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

// paretoOver is moo's one enumeration routine, behind SolveExhaustive (all
// variables, every selection) and the GA's termination certificate (the
// variables that can be selected at all). It walks the selections over
// vars — at most 64 of them; every other variable stays unselected — depth
// first, extending each selection only by a variable later in vars than
// any it holds, so it evaluates each selection through p at most once. It
// appends to front the feasible ones no feasible one dominates, and
// reports whether the walk finished within budget evaluations (counted as
// they happen; a walk that would exceed it stops, and its front means
// nothing).
//
// With monotone, p promises what LiveSetter promises — selecting a
// variable never makes an infeasible genome feasible — and the walk
// extends feasible selections only: every feasible selection is still
// reached, through its subsets, which are feasible too. It keeps every
// selection whose objective vector equals a kept one's, as the certificate
// needs all of F*. Without, it visits all 2^len(vars) selections and keeps
// one witness per objective vector, the smallest mask. g is scratch of p's
// dimension, all zero on entry and not on return. The running list is
// mutually non-dominated at every step, so memory follows the front, not
// the walk; the objective slices are the ones Evaluate returned.
func paretoOver(p Problem, g Genome, vars []int, monotone bool, budget int, front []point) ([]point, bool) {
	n := len(vars)
	var mask uint64
	for evals := 0; evals < budget; evals++ {
		objs, ok := p.Evaluate(g)
		if ok {
			front = admit(front, point{mask, objs}, monotone)
		}
		j := bits.Len64(mask) // extend by the variable after the last one selected…
		if monotone && !ok {
			j = n // …unless no extension can be feasible
		}
		for ; j == n; j++ { // backtrack: drop the last variable, try the one after it
			if mask == 0 {
				return front, true
			}
			j = bits.Len64(mask) - 1
			mask &^= 1 << uint(j)
			g.SetBit(vars[j], false)
		}
		mask |= 1 << uint(j)
		g.SetBit(vars[j], true)
	}
	return front, false
}

// admit adds pt to a mutually non-dominated list unless a member dominates
// it (or, without ties, equals it: then the smaller mask of the two stays),
// evicting the members pt dominates.
// When pt loses, nothing is evicted: a member pt dominated would be
// dominated by the member that beat pt.
func admit(front []point, pt point, ties bool) []point {
	for i, f := range front {
		if Dominates(f.objs, pt.objs) {
			return front
		}
		if !ties && equalObjs(f.objs, pt.objs) {
			if pt.mask < f.mask {
				front[i] = pt // the smallest mask stands for them all
			}
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
