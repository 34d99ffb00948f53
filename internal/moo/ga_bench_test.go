package moo

import (
	"fmt"
	"testing"

	"bbsched/internal/rng"
)

// benchInstances are the fixed-seed instances both solvers run: the
// paper's w=20 window and a multi-word w=70 window.
func benchInstances() []struct {
	name string
	p    *knapsack2
} {
	return []struct {
		name string
		p    *knapsack2
	}{
		{"dim=20", randomKnapsack(20, 1009)},
		{"dim=70", randomKnapsack(70, 1013)},
	}
}

// BenchmarkSolveGA times the bitset/memoized solver at the paper's full
// configuration (G=500, P=20). Compare against BenchmarkSolveGAReference
// (the frozen seed implementation) on the same instance; the refactor's
// acceptance bar is ≥2x faster and ≥5x fewer allocs/op.
func BenchmarkSolveGA(b *testing.B) {
	for _, inst := range benchInstances() {
		b.Run(inst.name, func(b *testing.B) {
			cfg := DefaultGAConfig()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				front, err := SolveGA(inst.p, cfg, rng.New(7))
				if err != nil {
					b.Fatal(err)
				}
				if len(front) == 0 {
					b.Fatal("empty front")
				}
			}
		})
	}
}

// BenchmarkSolveGAReference times the frozen seed implementation
// (ga_reference_test.go) on the same fixed-seed instances.
func BenchmarkSolveGAReference(b *testing.B) {
	for _, inst := range benchInstances() {
		b.Run(inst.name, func(b *testing.B) {
			cfg := DefaultGAConfig()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				front, err := refSolveGA(refKnapsack2{inst.p}, cfg, rng.New(7))
				if err != nil {
					b.Fatal(err)
				}
				if len(front) == 0 {
					b.Fatal("empty front")
				}
			}
		})
	}
}

// BenchmarkEvaluatorLookup isolates the memo-cache lookup cost per
// genome size.
func BenchmarkEvaluatorLookup(b *testing.B) {
	for _, dim := range []int{20, 70, 200} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			k := randomKnapsack(dim, 31)
			ev := NewEvaluator(k)
			g := FromBools(randBools(dim, rng.New(1)))
			ev.Evaluate(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Evaluate(g)
			}
		})
	}
}

// BenchmarkCertify times the certificate's walk on busy windows of 16
// live jobs at the default budget, G evaluations: one the walk finishes
// in 398 evaluations, and one whose walk would take 1 278 and is refused.
// It reports the evaluations a walk spends of the 2^16 selections.
func BenchmarkCertify(b *testing.B) {
	crowded := busyKnapsack(16, 11)
	crowded.capNodes, crowded.capBB = 60, 80
	for _, c := range []struct {
		name string
		k    *knapsack2
		ok   bool
	}{{"L=16/certified", crowded, true}, {"L=16/refused", busyKnapsack(16, 11), false}} {
		b.Run(c.name, func(b *testing.B) {
			cp := &countingProblem{knapsack2: c.k}
			live, _ := liveKnapsack{c.k}.LiveSet(nil)
			budget := walkBudget(DefaultGAConfig(), len(live))
			g := NewGenome(c.k.Dim())
			var front []point
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Zero()
				var ok bool
				if front, ok = paretoOver(cp, g, live, true, budget, front[:0]); ok != c.ok {
					b.Fatalf("the walk finished within %d evaluations: %v", budget, ok)
				}
			}
			b.ReportMetric(float64(cp.calls)/float64(b.N), "evals/walk")
		})
	}
}
