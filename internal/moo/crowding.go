package moo

import (
	"math"
	"sort"
)

// SelectionPolicy picks how the GA forms the next generation.
type SelectionPolicy int

const (
	// AgeBased is the paper's §3.2.2 selection: the pool's Pareto front
	// first, newer chromosomes preferred. The default.
	AgeBased SelectionPolicy = iota
	// Crowding is NSGA-II-style selection: non-dominated sorting into
	// ranked fronts, ties within the cut front broken by descending
	// crowding distance. Provided for the selection-policy ablation.
	Crowding
)

// nonDominatedSort partitions pool into fronts of pool indices: fronts[0]
// is the Pareto front, fronts[1] the front once fronts[0] is removed, and
// so on.
func nonDominatedSort(pool []Solution) [][]int {
	n := len(pool)
	dominatedBy := make([]int, n) // how many solutions dominate i
	dominates := make([][]int, n) // which solutions i dominates
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if Dominates(pool[i].Objectives, pool[j].Objectives) {
				dominates[i] = append(dominates[i], j)
			} else if Dominates(pool[j].Objectives, pool[i].Objectives) {
				dominatedBy[i]++
			}
		}
	}
	var fronts [][]int
	current := []int{}
	for i := 0; i < n; i++ {
		if dominatedBy[i] == 0 {
			current = append(current, i)
		}
	}
	for len(current) > 0 {
		var next []int
		for _, i := range current {
			for _, j := range dominates[i] {
				dominatedBy[j]--
				if dominatedBy[j] == 0 {
					next = append(next, j)
				}
			}
		}
		fronts = append(fronts, current)
		current = next
	}
	return fronts
}

// crowdingDistances returns each front member's crowding distance: the
// sum over objectives of the normalized gap between its neighbours when
// the front is sorted along that objective. Boundary points get +Inf.
func crowdingDistances(front []Solution) []float64 {
	n := len(front)
	dist := make([]float64, n)
	if n == 0 {
		return dist
	}
	m := len(front[0].Objectives)
	idx := make([]int, n)
	for k := 0; k < m; k++ {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return front[idx[a]].Objectives[k] < front[idx[b]].Objectives[k]
		})
		lo := front[idx[0]].Objectives[k]
		hi := front[idx[n-1]].Objectives[k]
		dist[idx[0]] = math.Inf(1)
		dist[idx[n-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for i := 1; i < n-1; i++ {
			gap := front[idx[i+1]].Objectives[k] - front[idx[i-1]].Objectives[k]
			dist[idx[i]] += gap / (hi - lo)
		}
	}
	return dist
}

// selectCrowding forms the next generation NSGA-II style and returns it
// as pool indices: fill with whole fronts in rank order; cut the
// overflowing front by descending crowding distance (stable: equal
// distances keep front order). Only the cut front computes distances, and
// only the surviving k members are ordered — a stable partial selection
// instead of fully re-sorting the front.
func selectCrowding(pool []Solution, p int) []int {
	next := make([]int, 0, p)
	for _, front := range nonDominatedSort(pool) {
		if len(next)+len(front) <= p {
			next = append(next, front...)
			continue
		}
		cut := make([]Solution, len(front))
		for k, i := range front {
			cut[k] = pool[i]
		}
		dist := crowdingDistances(cut)
		picked := make([]bool, len(front))
		for len(next) < p {
			best := -1
			for i := range front {
				if !picked[i] && (best < 0 || dist[i] > dist[best]) {
					best = i
				}
			}
			picked[best] = true
			next = append(next, front[best])
		}
		break
	}
	return next
}
