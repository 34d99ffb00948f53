// SSD case study (§5): extend BBSched from two to four objectives — node
// utilization, shared burst buffer, per-node local SSD utilization, and
// (minimized) wasted SSD — on a machine whose nodes split into 128 GB and
// 256 GB SSD classes.
//
// Run with: go run ./examples/ssdcasestudy
package main

import (
	"context"
	"fmt"
	"log"

	"bbsched/internal/core"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

func main() {
	system := trace.Scale(trace.Theta(), 32)

	base := trace.Generate(trace.GenConfig{System: system, Jobs: 300, Seed: 42})
	base.Name = "Theta-Base"
	moderate, _ := trace.BBFloors(base)
	s2 := trace.ExpandBB(base, "Theta-S2", 0.75, moderate, 44)
	// S6: 50% of jobs request <=128 GB of SSD per node, 50% need the big
	// 256 GB nodes. Half the machine's nodes carry each class.
	s6 := trace.AddSSD(s2, "Theta-S6", trace.S6, 45)

	fourObj := core.NewForObjectives(sched.FourObjectives()) // node, bb, ssd, -waste; 4x rule
	methods := []sched.Method{
		sched.Baseline{},
		&sched.Constrained{MethodName: "Constrained_SSD", Target: sched.SSDUtil, GA: fourObj.GA},
		fourObj,
	}

	fmt.Printf("workload %s on %d nodes (half 128 GB SSD, half 256 GB)\n\n", s6.Name, s6.System.Cluster.Nodes)
	for _, m := range methods {
		s, err := sim.NewSimulator(s6, m, sim.WithSeed(1))
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s node %5.1f%%  bb %5.1f%%  ssd %5.1f%%  wasted-ssd %5.1f%%  wait %6.0fs\n",
			m.Name(), res.NodeUsage*100, res.BBUsage*100, res.SSDUsage*100,
			res.WastedSSDFrac*100, res.AvgWaitSec)
	}
	fmt.Println("\nConstrained_SSD maximizes one axis; the four-objective BBSched trades")
	fmt.Println("across all of them (including minimized SSD waste) and delivers the")
	fmt.Println("lowest waits — the balance Fig. 14's Kiviat plots show.")
}
