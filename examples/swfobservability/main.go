// SWF + observability: drive the simulator from a Standard Workload
// Format log (the parallel workloads archive format), layer synthetic
// burst-buffer demands on it the way the paper enhanced Theta's log with
// Darshan data, and read the machine's utilization timeline back from the
// simulation event log.
//
// Run with: go run ./examples/swfobservability
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"

	"bbsched/internal/core"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

func main() {
	// A workload exported as SWF (stands in for an archive download);
	// SWF carries no burst-buffer fields.
	system := trace.Scale(trace.Theta(), 32)
	original := trace.Generate(trace.GenConfig{System: system, Jobs: 200, Seed: 21})
	var swf bytes.Buffer
	if err := trace.WriteSWF(&swf, original.Jobs, 64); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SWF log: %d bytes, first line: %.60s...\n\n", swf.Len(), firstDataLine(swf.String()))

	// Import and enhance: 75% of jobs get heavy burst-buffer requests.
	jobs, err := trace.ReadSWF(bytes.NewReader(swf.Bytes()), trace.SWFOptions{CoresPerNode: 64})
	if err != nil {
		log.Fatal(err)
	}
	w := trace.Workload{Name: "swf-import", System: system, Jobs: jobs}
	_, heavy := trace.BBFloors(w)
	w = trace.ExpandBB(w, "swf-S4", 0.75, heavy, 23)

	// Simulate with the event log enabled.
	var events bytes.Buffer
	s, err := sim.NewSimulator(w, core.New(), sim.WithSeed(1), sim.WithEventLog(&events))
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d jobs: node %.1f%%, bb %.1f%%, wait %.0fs\n\n",
		res.TotalJobs, res.NodeUsage*100, res.BBUsage*100, res.AvgWaitSec)

	// Rebuild a node-utilization timeline from the log: peak usage per
	// tenth of the makespan.
	recs, err := sim.ReadEventLog(&events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("node utilization timeline (peak per decile of makespan):")
	buckets := make([]int, 10)
	for _, r := range recs {
		d := int(r.T * 10 / (res.MakespanSec + 1))
		if r.UsedNodes > buckets[d] {
			buckets[d] = r.UsedNodes
		}
	}
	for i, peak := range buckets {
		frac := float64(peak) / float64(system.Cluster.Nodes)
		fmt.Printf("  %3d%%-%3d%%  %s %.0f%%\n", i*10, (i+1)*10,
			strings.Repeat("#", int(frac*40)), frac*100)
	}
}

func firstDataLine(s string) string {
	for _, line := range strings.Split(s, "\n") {
		if line != "" && !strings.HasPrefix(line, ";") {
			return line
		}
	}
	return ""
}
