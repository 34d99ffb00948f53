package queue

import (
	"fmt"
	"runtime"
	"testing"

	"bbsched/internal/job"
	"bbsched/internal/rng"
)

// benchJob draws job id for the bench queues: submit times colliding on a
// ten-second grid from submit on, varied sizes and walltime estimates.
func benchJob(r *rng.Stream, id int, submit int64) *job.Job {
	return &job.Job{
		ID:          id,
		SubmitTime:  submit + int64(r.Intn(200))*10,
		WalltimeEst: []int64{600, 1800, 3600}[r.Intn(3)],
		Runtime:     600,
		Demand:      job.NewDemand(1+r.Intn(32), int64(r.Intn(2000)), 0),
	}
}

// benchQueue builds a WFP (time-varying) queue of depth jobs.
func benchQueue(depth int) *Queue {
	r := rng.New(1013)
	q := New(WFP{})
	for i := 0; i < depth; i++ {
		q.Add(benchJob(r, i+1, 0))
	}
	return q
}

// BenchmarkWindowInto re-ranks a queue that never changes, with the window
// as the front, while now jumps by a minute a call and back to zero every
// thousand. The first minutes, when cubic WFP priorities leave zero, and
// the rewind scramble the order: at w=depth Rank falls back to its sort on
// 2% of calls at n=1024 and 8% at n=8192 and repairs the whole queue on
// the rest; at w=20 it scans the queue once against the front's last
// member and never sorts.
func BenchmarkWindowInto(b *testing.B) {
	ready := func(int) bool { return true }
	for _, depth := range []int{1024, 8192} {
		for _, w := range []int{20, depth / 2, depth} {
			b.Run(fmt.Sprintf("n=%d/w=%d", depth, w), func(b *testing.B) {
				q := benchQueue(depth)
				buf := make([]*job.Job, 0, depth)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = q.WindowInto(buf[:0], int64(i%1000)*60, w, ready)
				}
				if len(buf) != w {
					b.Fatalf("window len %d, want %d", len(buf), w)
				}
			})
		}
	}
}

// BenchmarkRankSuccessivePasses is the pass the engine makes: between two
// rankings the clock advances some tens of seconds, the front job starts
// and one job arrives, so the front the last pass left needs a repair
// (and, at w=20, some ten promotions a pass), not a sort.
func BenchmarkRankSuccessivePasses(b *testing.B) {
	ready := func(int) bool { return true }
	for _, depth := range []int{1024, 8192} {
		for _, w := range []int{20, depth} {
			b.Run(fmt.Sprintf("n=%d/w=%d", depth, w), func(b *testing.B) {
				q := benchQueue(depth)
				r := rng.New(2027)
				buf := make([]*job.Job, 0, depth)
				now := int64(4000)
				buf = q.WindowInto(buf[:0], now, w, ready)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now += 10 + int64(r.Intn(50))
					q.Remove(buf[0].ID)
					q.Add(benchJob(r, depth+i+1, now-2000))
					buf = q.WindowInto(buf[:0], now, w, ready)
				}
				if len(buf) != w {
					b.Fatalf("window len %d, want %d", len(buf), w)
				}
			})
		}
	}
}

// BenchmarkPassFullFront is the pass the engine makes over a wide window:
// Pass with the window as the front, Ranking.Window against the free
// totals, and Age, which ends a pass whose window no job fits alone — most
// passes on a full machine. Between passes the clock advances some tens
// of seconds, a front job starts and a job arrives, over a WFP queue 1 300
// deep. Half the passes have no free node, so no front job's node class
// fits; the others have 1–32 free nodes, as many as a job asks for.
func BenchmarkPassFullFront(b *testing.B) {
	ready := func(int) bool { return true }
	const depth = 1300
	for _, w := range []int{20, 1024} {
		b.Run(fmt.Sprintf("n=%d/w=%d", depth, w), func(b *testing.B) {
			q := benchQueue(depth)
			r := rng.New(3001)
			now := int64(4000)
			q.Pass(now, ready, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 10 + int64(r.Intn(50))
				q.Remove(q.slots[r.Intn(q.front)].ID)
				q.Add(benchJob(r, depth+i+1, now-2000))
				rk := q.Pass(now, ready, w)
				free, freeBB := r.Intn(2)*(1+r.Intn(32)), int64(r.Intn(2000))
				rk.Window(free, freeBB)
				rk.Age(nil, free, freeBB)
			}
			if q.front != w {
				b.Fatalf("front %d, want %d", q.front, w)
			}
		})
	}
}

// BenchmarkQueueBytesPerJob reports what a waiting job costs the queue in
// live heap — its slot, at the capacity append grew the array to, plus its
// share of a ranking at the paper's window of 20 — as B/job: the queue's
// share of a replay's peak_heap_mb. The jobs themselves are allocated
// before the baseline and do not count.
func BenchmarkQueueBytesPerJob(b *testing.B) {
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ready := func(int) bool { return true }
	for _, depth := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", depth), func(b *testing.B) {
			r := rng.New(1013)
			jobs := make([]*job.Job, depth)
			for i := range jobs {
				jobs[i] = benchJob(r, i+1, 0)
			}
			var bytes uint64
			for i := 0; i < b.N; i++ {
				base := liveHeap()
				q := New(WFP{})
				for _, j := range jobs {
					q.Add(j)
				}
				q.Rank(4000, ready, 20)
				bytes = liveHeap() - base
				runtime.KeepAlive(q)
			}
			b.ReportMetric(float64(bytes)/float64(depth), "B/job")
		})
	}
}
