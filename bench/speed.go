package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Machine-speed calibration.
//
// The sandbox this benchmark runs in shares its cores: the same code
// alternates between a fast regime and one up to 1.5x slower, on a time
// scale of seconds to minutes (README.md, "Noise"), which no amount of
// repetition inside one run averages away. So every timed section is paced
// by a fixed reference kernel — code that never changes with the
// repository — run for ~4 ms every paceEvery on the goroutine doing the
// work. A section's duration is reported in reference seconds:
//
//	wall seconds outside the kernel × speed factor
//
// where the speed factor is the kernel's nominal duration over its mean
// duration inside the section. On a machine running the kernel at its
// nominal speed, a reference second is a wall second.
//
// The kernel has two halves, timed apart, and the speed factor is the
// geometric mean of theirs. Measured against the five workloads over
// thirteen minutes of a noisy sandbox, the workloads slow down 1.3–1.7x as
// much (in log terms) as the branchy sort half and 0.6–0.8x as much as the
// high-IPC arithmetic half; the geometric mean sits in the middle of all
// five.

const (
	sortSize = 1 << 14
	mixWords = 2048
	mixReps  = 1200
	// The nominal durations are the halves' durations in the fast regime
	// of the sandbox the baseline was recorded on. Only ratios between
	// commits matter, so they are pinned rather than measured.
	nominalSort = 2000 * time.Microsecond
	nominalMix  = 1400 * time.Microsecond
	paceEvery   = 100 * time.Millisecond
)

// sortHalf sorts pseudo-random words: compare-and-swap through a closure,
// mispredicted branches, an L2-resident working set.
func sortHalf(buf []uint64) time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return time.Since(start)
}

// mixHalf runs four independent multiply/rotate/popcount chains over an
// L1-resident array: no mispredictions, all execution ports busy. It folds
// its result into words so the compiler cannot drop the loop.
func mixHalf(words []uint64) time.Duration {
	start := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	var ones int
	for r := 0; r < mixReps; r++ {
		for i := 0; i < len(words); i += 4 {
			a = a*6364136223846793005 + words[i]
			b = b*1442695040888963407 + words[i+1]
			c ^= (c << 7) + words[i+2]
			d += bits.RotateLeft64(d, 13) ^ words[i+3]
			ones += bits.OnesCount64(a ^ b)
		}
	}
	words[0] ^= (a + b + c + d + uint64(ones)) & 1
	return time.Since(start)
}

// speedMeter accumulates one timed section's kernel samples and the time
// its goroutines spent paused for instrumentation (kernel runs, forced
// GCs), which is excluded from the section.
type speedMeter struct {
	mu        sync.Mutex
	samples   int
	sort, mix time.Duration
	paused    time.Duration
}

func (m *speedMeter) pause(d time.Duration) {
	m.mu.Lock()
	m.paused += d
	m.mu.Unlock()
}

func (m *speedMeter) pausedSoFar() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.paused
}

// factor converts wall seconds of this section to reference seconds.
func (m *speedMeter) factor() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.samples == 0 {
		return 1
	}
	n := float64(m.samples)
	return math.Sqrt(float64(nominalSort) * n / float64(m.sort) * float64(nominalMix) * n / float64(m.mix))
}

// pacer is one goroutine's handle on a meter. It is not safe for
// concurrent use; every worker goroutine takes its own.
type pacer struct {
	m     *speedMeter
	buf   []uint64
	words []uint64
	last  time.Time
}

func (m *speedMeter) pacer() *pacer {
	p := &pacer{m: m, buf: make([]uint64, sortSize), words: make([]uint64, mixWords)}
	for i := range p.words {
		p.words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return p
}

// tick runs the kernel when one is due.
func (p *pacer) tick() {
	if time.Since(p.last) >= paceEvery {
		p.sample()
	}
}

func (p *pacer) sample() {
	s, x := sortHalf(p.buf), mixHalf(p.words)
	p.m.mu.Lock()
	p.m.samples++
	p.m.sort += s
	p.m.mix += x
	p.m.paused += s + x
	p.m.mu.Unlock()
	p.last = time.Now()
}

// liveHeap forces a collection and returns the live heap, charging the
// pause to the meter.
func (p *pacer) liveHeap() uint64 {
	start := time.Now()
	h := liveHeap()
	p.m.pause(time.Since(start))
	return h
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// section times one stretch of work in reference seconds.
type section struct {
	meter speedMeter
	start time.Time
	cpu0  time.Duration
}

func beginSection() *section {
	return &section{start: time.Now(), cpu0: processCPU()}
}

// timing is a finished section.
type timing struct {
	wall, cpu float64 // reference seconds
	raw       float64 // wall seconds, pauses excluded
	factor    float64
}

// end closes the section. Pauses accumulate across the section's worker
// goroutines, so wall time is reduced by their per-worker share and CPU
// time by all of it.
func (s *section) end(workers int) timing {
	wall := time.Since(s.start)
	cpu := processCPU() - s.cpu0
	paused := s.meter.pausedSoFar()
	f := s.meter.factor()
	raw := (wall - paused/time.Duration(workers)).Seconds()
	return timing{
		wall:   raw * f,
		cpu:    (cpu - paused).Seconds() * f,
		raw:    raw,
		factor: f,
	}
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
