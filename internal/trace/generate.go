package trace

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"bbsched/internal/job"
	"bbsched/internal/rng"
)

// GenConfig parameterizes the workload generator.
type GenConfig struct {
	// System is the target machine model.
	System SystemModel
	// Jobs is the number of jobs to generate.
	Jobs int
	// Seed makes the workload reproducible.
	Seed uint64
	// TargetLoad is the offered compute load as a fraction of capacity
	// (node-seconds demanded / node-seconds available over the horizon).
	// Values slightly above one create the sustained queue contention the
	// paper's traces exhibit. Default 1.1.
	TargetLoad float64
	// DependencyFraction is the fraction of jobs given a dependency on an
	// earlier job (the real traces carry none; tests use this to exercise
	// the window's dependency gating). Default 0.
	DependencyFraction float64
	// Users is the number of distinct submitting users. Default 50.
	Users int
	// BBDrainGBps, when positive, gives every burst-buffer job a
	// stage-out phase of bb_size / BBDrainGBps seconds during which its
	// burst buffer stays allocated after the job's nodes are released
	// (Slurm stage-out, [24]). Zero disables stage-out.
	BBDrainGBps float64
}

// userNames returns the names of n submitting users, user000 on, which the
// generators draw from: built once, so that a job costs no formatting.
func userNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("user%03d", i)
	}
	return names
}

func (c GenConfig) withDefaults() GenConfig {
	if c.TargetLoad == 0 {
		c.TargetLoad = 1.1
	}
	if c.Users == 0 {
		c.Users = 50
	}
	return c
}

// Generate produces a workload for cfg.System with the documented job-size,
// runtime, and burst-buffer characteristics of the original (unexpanded)
// trace. Jobs are sorted by submission time with dense IDs. It stays a
// batch algorithm beside GenSource because it calibrates the arrivals over
// the whole trace: the interarrival mean comes from the total offered
// node-seconds, known only once every job is drawn.
func Generate(cfg GenConfig) Workload {
	cfg = cfg.withDefaults()
	if cfg.Jobs <= 0 {
		return Workload{Name: cfg.System.Cluster.Name, System: cfg.System}
	}
	root := rng.New(cfg.Seed).Split("trace:" + cfg.System.Cluster.Name)
	smp := newSampler(cfg, root)
	jobs := make([]*job.Job, cfg.Jobs)
	var totalNodeSec int64
	for i := range jobs {
		jobs[i] = smp.job(i)
		totalNodeSec += int64(jobs[i].Demand.NodeCount()) * jobs[i].Runtime
	}

	assignArrivals(root.Split("arrivals"), jobs, cfg.System.Cluster.Nodes, totalNodeSec, cfg.TargetLoad)
	job.SortBySubmit(jobs)
	for i, j := range jobs {
		j.ID = i // dense IDs in submission order
	}
	if cfg.DependencyFraction > 0 {
		addDependencies(root.Split("deps"), jobs, cfg.DependencyFraction)
	}
	return Workload{Name: cfg.System.Cluster.Name, System: cfg.System, Jobs: jobs}
}

// sampler draws the columns of a job that Generate and GenSource share —
// size, runtime, burst buffer, user and stage-out — each from its own
// stream split from the generator's root, leaving submit times and
// dependencies to the generator.
type sampler struct {
	cfg                      GenConfig
	sizes, times, bbs, users *rng.Stream
	names                    []string // userNames(cfg.Users)
}

func newSampler(cfg GenConfig, root *rng.Stream) sampler {
	return sampler{
		cfg:   cfg,
		sizes: root.Split("sizes"),
		times: root.Split("runtimes"),
		bbs:   root.Split("bb"),
		users: root.Split("users"),
		names: userNames(cfg.Users),
	}
}

// job draws job id, submitted at time 0.
func (g *sampler) job(id int) *job.Job {
	sys := g.cfg.System
	n := sampleNodes(g.sizes, sys)
	runtime, walltime := sampleRuntime(g.times, sys)
	var bb int64
	if g.bbs.Bool(sys.BBFraction) {
		bb = sampleBB(g.bbs, 1, sys.MaxBBRequestGB)
	}
	j := job.MustNew(id, 0, runtime, walltime, job.NewDemand(n, bb, 0))
	j.User = g.names[g.users.Intn(g.cfg.Users)]
	if bb > 0 && g.cfg.BBDrainGBps > 0 {
		j.StageOutSec = int64(float64(bb) / g.cfg.BBDrainGBps)
	}
	return j
}

// sampleNodes draws a job node count.
//
// Capacity systems (Cori): log-normally distributed sizes with median ~4
// nodes — the trace is dominated by small jobs with a long tail.
// Capability systems (Theta): ALCF's minimum allocation is 128 nodes and
// jobs cluster at power-of-two sizes up to the full machine.
func sampleNodes(s *rng.Stream, m SystemModel) int {
	n := m.Cluster.Nodes
	if m.Capability {
		// Bucket sizes are fractions of the machine (128/4392 ≈ 3% up to
		// nearly half) so scaled-down models keep Theta's size mix, which
		// is dominated by minimum-allocation (128-node) jobs.
		fracs := []float64{0.03, 0.06, 0.12, 0.23, 0.47}
		weights := []float64{0.52, 0.25, 0.12, 0.08, 0.03}
		// Occasionally a full-machine capability run.
		if s.Bool(0.01) {
			return n
		}
		pick := int(fracs[s.PickWeighted(weights)] * float64(n))
		if pick < 1 {
			pick = 1
		}
		return pick
	}
	v := int(math.Round(s.LogNormal(math.Log(4), 1.4)))
	if v < 1 {
		v = 1
	}
	if v > n {
		v = n
	}
	return v
}

// sampleRuntime draws (actual runtime, user walltime estimate) in seconds.
// Runtimes are log-normal (median 30 min capacity / 1 h capability), capped
// at 24 h; user estimates pad the actual runtime by a uniform factor in
// [1, 3] rounded up to 15-minute increments, reflecting the pervasive
// over-estimation documented for production logs.
func sampleRuntime(s *rng.Stream, m SystemModel) (runtime, walltime int64) {
	median := 1800.0
	if m.Capability {
		median = 3600.0
	}
	const maxRuntime = 86400
	r := s.LogNormal(math.Log(median), 1.1)
	if r < 60 {
		r = 60
	}
	if r > maxRuntime {
		r = maxRuntime
	}
	runtime = int64(r)
	est := float64(runtime) * (1 + 2*s.Float64())
	const quantum = 900
	walltime = (int64(est) + quantum - 1) / quantum * quantum
	if walltime > 2*maxRuntime {
		walltime = 2 * maxRuntime
	}
	if walltime < runtime {
		walltime = runtime
	}
	return runtime, walltime
}

// sampleBB draws a burst-buffer request in GB from a heavy-tailed bounded
// Pareto on [loGB, hiGB]; Fig. 5 shows most requests small with a tail out
// to hundreds of TB.
func sampleBB(s *rng.Stream, loGB, hiGB int64) int64 {
	if hiGB <= loGB {
		return loGB
	}
	v := s.BoundedPareto(0.45, float64(loGB), float64(hiGB))
	gb := int64(math.Round(v))
	if gb < loGB {
		gb = loGB
	}
	if gb > hiGB {
		gb = hiGB
	}
	return gb
}

// assignArrivals spaces submissions with Weibull(0.7) interarrivals (bursty,
// as submission logs are) whose mean is calibrated so the offered load over
// the submission horizon equals targetLoad.
func assignArrivals(s *rng.Stream, jobs []*job.Job, nodes int, totalNodeSec int64, targetLoad float64) {
	const shape = 0.7
	horizon := float64(totalNodeSec) / (float64(nodes) * targetLoad)
	meanIA := horizon / float64(len(jobs))
	// E[Weibull(k, λ)] = λ Γ(1+1/k); solve λ for the desired mean.
	scale := meanIA / math.Gamma(1+1/shape)
	t := 0.0
	for _, j := range jobs {
		t += s.Weibull(shape, scale)
		j.SubmitTime = int64(t)
	}
}

// addDependencies gives frac of jobs (excluding the first) a dependency on
// a uniformly chosen earlier job.
func addDependencies(s *rng.Stream, jobs []*job.Job, frac float64) {
	for i := 1; i < len(jobs); i++ {
		if s.Bool(frac) {
			jobs[i].Deps = []int{jobs[s.Intn(i)].ID}
		}
	}
}

// ExpandBB implements the paper's S1–S4 synthetic expansion: raise the
// fraction of burst-buffer-requesting jobs to frac, assigning each newly
// converted job a request resampled from the original requests at or above
// floorGB (falling back to fresh heavy-tailed draws when the original pool
// below the floor is empty). The input workload is not modified: the
// result shares its unchanged jobs and holds copies of the converted ones.
//
// It stays a batch algorithm beside ExpandBBSource because it needs the
// whole trace twice over: it converts exactly frac of the jobs, which
// needs their count, and it resamples from the trace's own request pool.
func ExpandBB(w Workload, name string, frac float64, floorGB int64, seed uint64) Workload {
	out := Workload{Name: name, System: w.System, Jobs: slices.Clone(w.Jobs)}
	s := rng.New(seed).Split("expand:" + name)

	// Pool of original requests >= floor to resample from.
	var pool []int64
	for _, j := range out.Jobs {
		if bb := j.Demand.BB(); bb >= floorGB && bb > 0 {
			pool = append(pool, bb)
		}
	}
	draw := func() int64 {
		if len(pool) > 0 {
			return pool[s.Intn(len(pool))]
		}
		return sampleBB(s, floorGB, w.System.MaxBBRequestGB)
	}

	have := 0
	var without []int // indices of the jobs without a request
	for i, j := range out.Jobs {
		if j.Demand.BB() > 0 {
			have++
		} else {
			without = append(without, i)
		}
	}
	want := int(frac * float64(len(out.Jobs)))
	need := want - have
	if need <= 0 {
		return out
	}
	s.Shuffle(len(without), func(i, k int) { without[i], without[k] = without[k], without[i] })
	if need > len(without) {
		need = len(without)
	}
	for _, i := range without[:need] {
		out.Jobs[i] = withDemand(out.Jobs[i], job.BurstBufferGB, draw())
	}
	return out
}

// SSDMix describes the §5 per-node local SSD request mix: smallFrac of jobs
// draw uniformly from (0,128] GB, the rest from (128,256] GB.
type SSDMix struct {
	// SmallFrac is the fraction of jobs with 0–128 GB per-node requests.
	SmallFrac float64
}

// S5, S6, S7 are the paper's three SSD mixes (§5): 80/20, 50/50, 20/80.
var (
	S5 = SSDMix{SmallFrac: 0.8}
	S6 = SSDMix{SmallFrac: 0.5}
	S7 = SSDMix{SmallFrac: 0.2}
)

// AddSSD returns a copy of w (renamed) whose jobs carry per-node local SSD
// requests drawn per mix, targeting the SSD-equipped variant of the system.
// Jobs wider than the 256 GB node class receive small (≤128 GB) requests
// regardless of the mix — a >128 GB request restricts a job to big-SSD
// nodes (§5), so a wider job could never be scheduled at all.
func AddSSD(w Workload, name string, mix SSDMix, seed uint64) Workload {
	src, sys := addSSD(SourceOf(w), w.System, mix, rng.New(seed).Split("ssd:"+name))
	return Workload{Name: name, System: sys, Jobs: mustCollect(src)}
}

// BBFloors returns the S1/S2 ("moderate", paper: >5 TB) and S3/S4
// ("heavy", paper: >20 TB) resample floors for a workload, calibrated so
// the heavy expansion pushes the aggregate burst-buffer demand of
// concurrently running jobs past the pool — the paper's burst-buffer-bound
// regime where Figs. 6–8 show the methods diverging — while the moderate
// expansion creates pressure without saturation.
//
// The calibration estimates steady-state job concurrency from the mean job
// size (concurrency ≈ 0.85·N / mean nodes) and sets the heavy floor near
// pool/concurrency: heavy-tailed draws then aggregate to a multiple of the
// pool. Floors are capped below the maximum request so draws keep a range.
func BBFloors(w Workload) (moderate, heavy int64) {
	sys := w.System
	var nodeSum int64
	for _, j := range w.Jobs {
		nodeSum += int64(j.Demand.NodeCount())
	}
	if len(w.Jobs) == 0 || nodeSum == 0 {
		return 1, 4
	}
	meanNodes := float64(nodeSum) / float64(len(w.Jobs))
	conc := 0.85 * float64(sys.Cluster.Nodes) / meanNodes
	if conc < 1 {
		conc = 1
	}
	perJob := float64(sys.Cluster.BurstBufferGB) / conc
	heavy = int64(perJob)
	moderate = int64(perJob / 4)
	if maxHeavy := sys.MaxBBRequestGB * 4 / 5; heavy > maxHeavy {
		heavy = maxHeavy
	}
	if maxMod := sys.MaxBBRequestGB / 4; moderate > maxMod {
		moderate = maxMod
	}
	if moderate < 1 {
		moderate = 1
	}
	if heavy <= moderate {
		heavy = moderate * 4
	}
	return moderate, heavy
}

// AddExtraDemand returns a copy of w (renamed unless name is empty) whose
// jobs carry demands in extra resource dimension dim: with probability
// frac a job requests nodes × uniform[perNodeMin, perNodeMax], clamped to
// the machine's capacity in that dimension so the workload stays
// schedulable. Like AddSSD/ExpandBB it retrofits demands onto an already
// generated workload, leaving the generator's RNG streams — and therefore
// every other column of the trace — untouched.
func AddExtraDemand(w Workload, name string, dim int, perNodeMin, perNodeMax int64, frac float64, seed uint64) Workload {
	out := Workload{Name: w.Name, System: w.System, Jobs: slices.Clone(w.Jobs)}
	if name != "" {
		out.Name = name
	}
	if dim < 0 || dim >= len(out.System.Cluster.Extra) {
		panic(fmt.Sprintf("trace: extra dimension %d outside the system's %d extra resources", dim, len(out.System.Cluster.Extra)))
	}
	capTotal := out.System.Cluster.Extra[dim].Capacity
	if perNodeMax < perNodeMin {
		perNodeMax = perNodeMin
	}
	s := rng.New(seed).Split("extra:" + out.Name + ":" + out.System.Cluster.Extra[dim].Name)
	for i, j := range out.Jobs {
		if !s.Bool(frac) {
			continue
		}
		perNode := perNodeMin
		if span := perNodeMax - perNodeMin; span > 0 {
			perNode += s.Int63n(span + 1)
		}
		v := perNode * int64(j.Demand.NodeCount())
		if v > capTotal {
			v = capTotal
		}
		out.Jobs[i] = withDemand(j, job.NumResources+job.Resource(dim), v)
	}
	return out
}

// WithStageOut returns a copy of w whose burst-buffer jobs carry stage-out
// phases of bb_size / drainGBps seconds (see GenConfig.BBDrainGBps). Used
// to retrofit stage-out onto expanded workloads whose BB requests were
// assigned after generation.
func WithStageOut(w Workload, drainGBps float64) Workload {
	w.Jobs = mustCollect(StageOutSource(SourceOf(w), drainGBps))
	return w
}

// mustCollect drains a source over a workload's own jobs, which cannot fail.
func mustCollect(src JobSource) []*job.Job {
	jobs, err := Collect(src)
	if err != nil {
		panic(err)
	}
	return jobs
}

// variantSpec is one workload variant (see Variants): S1–S4 expand the
// burst-buffer requests, S5–S7 layer a local-SSD mix on S2. ApplyVariant,
// ApplyVariantSource and IsSSDVariant all read variantSpecs.
type variantSpec struct {
	name  string
	frac  float64 // BB-requesting job fraction the expansion reaches
	heavy bool    // resample above the heavy (S3/S4) floor, not the moderate one
	off   uint64  // seed offset of the variant's own layer
	mix   *SSDMix // local-SSD mix, layered on S2
}

var variantSpecs = []variantSpec{
	{name: "Original"},
	{name: "S1", frac: 0.50, off: 1},
	{name: "S2", frac: 0.75, off: 2},
	{name: "S3", frac: 0.50, heavy: true, off: 3},
	{name: "S4", frac: 0.75, heavy: true, off: 4},
	{name: "S5", off: 5, mix: &S5},
	{name: "S6", off: 6, mix: &S6},
	{name: "S7", off: 7, mix: &S7},
}

// lookupVariant returns the spec of the named variant (case-insensitive;
// "" means Original).
func lookupVariant(variant string) (variantSpec, error) {
	v := strings.TrimSpace(variant)
	if v == "" {
		v = "Original"
	}
	for _, spec := range variantSpecs {
		if strings.EqualFold(spec.name, v) {
			return spec, nil
		}
	}
	return variantSpec{}, fmt.Errorf("trace: unknown variant %q (have %s)", variant, strings.Join(Variants(), ", "))
}

// floor picks the variant's resample floor from the moderate and heavy
// floors (BBFloors, EstimateBBFloors).
func (v variantSpec) floor(moderate, heavy int64) int64 {
	if v.heavy {
		return heavy
	}
	return moderate
}

// Variants lists the workload variant names in presentation order:
// "Original" (the generated base trace), the §4 burst-buffer expansions
// S1–S4, and the §5 local-SSD mixes S5–S7 (layered on the S2 expansion,
// on SSD-equipped machines). Variant names are case-insensitive in
// ApplyVariant.
func Variants() []string {
	names := make([]string, len(variantSpecs))
	for i, v := range variantSpecs {
		names[i] = v.name
	}
	return names
}

// IsSSDVariant reports whether the named variant carries local-SSD
// requests (S5–S7) and therefore pairs with the §5 method roster.
func IsSSDVariant(variant string) bool {
	spec, err := lookupVariant(variant)
	return err == nil && spec.mix != nil
}

// ApplyVariant derives the named variant (see Variants; case-insensitive,
// "" means Original) from a base generated workload, using the same
// expansion fractions, resample floors, and seed offsets as the paper
// matrices — Matrix and SSDMatrix are built on it. The result is named
// "<cluster>-<variant>".
func ApplyVariant(base Workload, variant string, seed uint64) (Workload, error) {
	spec, err := lookupVariant(variant)
	if err != nil {
		return Workload{}, err
	}
	name := base.System.Cluster.Name + "-" + spec.name
	switch {
	case spec.mix != nil:
		s2, _ := ApplyVariant(base, "S2", seed)
		return AddSSD(s2, name, *spec.mix, seed+spec.off), nil
	case spec.frac > 0:
		return ExpandBB(base, name, spec.frac, spec.floor(BBFloors(base)), seed+spec.off), nil
	}
	base.Name = name
	return base, nil
}

// Matrix returns the paper's ten §4 workloads — {Cori, Theta} × {Original,
// S1..S4} — generated at the given job count and seed against the supplied
// (possibly scaled) system models.
func Matrix(cori, theta SystemModel, jobsPerTrace int, seed uint64) []Workload {
	return matrix(cori, theta, jobsPerTrace, seed, Variants()[:5])
}

// SSDMatrix returns the §5 case-study workloads: S5–S7 layered on the S2
// expansion of each system, on SSD-equipped machines.
func SSDMatrix(cori, theta SystemModel, jobsPerTrace int, seed uint64) []Workload {
	return matrix(cori, theta, jobsPerTrace, seed, Variants()[5:])
}

// matrix derives variants from a generated base trace of each system.
func matrix(cori, theta SystemModel, jobsPerTrace int, seed uint64, variants []string) []Workload {
	var out []Workload
	for _, sys := range []SystemModel{cori, theta} {
		base := Generate(GenConfig{System: sys, Jobs: jobsPerTrace, Seed: seed})
		for _, v := range variants {
			w, err := ApplyVariant(base, v, seed)
			if err != nil {
				panic(err)
			}
			out = append(out, w)
		}
	}
	return out
}
