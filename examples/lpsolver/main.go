// LP window solver: the pluggable-solver layer in action — the same
// scheduling window solved by the paper's genetic algorithm and by the
// matrix-free LP-relaxation backend (restarted Halpern PDHG + randomized
// rounding), then a full simulation driven end-to-end by an LP-backed
// method.
//
// The LP backend relaxes the 0/1 window-selection knapsack to x ∈ [0,1]ⁿ,
// solves the relaxation with first-order primal-dual iterations (no
// matrix factorization, just demand-column mat-vecs), and rounds back to
// a feasible selection — orders of magnitude cheaper than evolving a
// population on large windows, at near-identical selection quality for
// scalarized objectives.
//
// Run with: go run ./examples/lpsolver
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"bbsched"
)

func main() {
	// A 96-job scheduling window on a scaled Theta against a half-loaded
	// machine, scored by node utilization under the other resources'
	// constraints (the Constrained_CPU formulation).
	system := bbsched.ScaleSystem(bbsched.Theta(), 8)
	window := bbsched.Generate(bbsched.GenConfig{System: system, Jobs: 96, Seed: 7}).Jobs
	half := system.Cluster
	half.Nodes /= 2
	half.BurstBufferGB /= 2
	machine, err := bbsched.NewCluster(half)
	if err != nil {
		log.Fatal(err)
	}
	problem := bbsched.NewSelectionProblem(window, machine.Snapshot(), []bbsched.Objective{bbsched.NodeUtil})

	// The fractional relaxation, straight from the PDHG core.
	form, ok := bbsched.LinearizeProblem(problem)
	if !ok {
		log.Fatal("selection problem has no linear form")
	}
	x, stats := bbsched.SolveLPRelaxation(form, bbsched.LPConfig{})
	frac := 0
	for _, xi := range x {
		if xi > 0.01 && xi < 0.99 {
			frac++
		}
	}
	fmt.Printf("LP relaxation: %d PDHG iters over %d live columns, %d restarts, gap %.1e, bound %.0f nodes (%d fractional of %d jobs)\n\n",
		stats.Iters, stats.Active, stats.Restarts, stats.Gap, stats.Dual, frac, len(x))

	// The same window through both Solver backends.
	for _, solver := range []bbsched.Solver{
		bbsched.NewGASolver(bbsched.DefaultGAConfig()),
		bbsched.NewLPSolver(bbsched.DefaultLPConfig()),
	} {
		ev := bbsched.NewEvaluator(problem)
		start := time.Now()
		front, err := solver.Solve(ev, bbsched.SolverOptions{Rand: bbsched.NewRand(7)})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		best := front[0].Objectives[0]
		for _, s := range front {
			if s.Objectives[0] > best {
				best = s.Objectives[0]
			}
		}
		fmt.Printf("%-3s backend: best node utilization %4.0f / %d free, %3d selected, %8v\n",
			solver.Name(), best, half.Nodes, front[0].Genome.OnesCount(), elapsed.Round(10*time.Microsecond))
	}

	// End to end: the registry's LP-backed weighted method driving a full
	// simulation (what `bbsim -method Weighted_LP` runs).
	workload := bbsched.Generate(bbsched.GenConfig{System: system, Jobs: 300, Seed: 11})
	workload.Name = "Theta/8-lpsolver"
	method, err := bbsched.NewMethod("Weighted_LP", bbsched.DefaultGAConfig(), false)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := bbsched.NewSimulator(workload, method, bbsched.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s under %s [%s]: node %.1f%%, bb %.1f%%, avg wait %.0fs, %d decisions at %v avg\n",
		workload.Name, res.Method, bbsched.SolverNameOf(method),
		res.NodeUsage*100, res.BBUsage*100, res.AvgWaitSec, res.SchedInvocations, res.AvgDecisionTime)
}
