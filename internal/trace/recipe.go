package trace

import (
	"cmp"
	"fmt"
	"strings"
)

// Recipe describes a workload that can be rebuilt bit-for-bit from the
// recipe alone: the machine and generator, the paper variant, stage-out,
// and whether the jobs are materialized or streamed from the generator or
// a trace file. It is the one way a named workload becomes jobs: the farm
// ships recipes, never job tables, and bbsim and tracegen build theirs
// from their flags.
type Recipe struct {
	// Name overrides the derived "<cluster>-<variant>" workload name when
	// non-empty.
	Name string `json:"name,omitempty"`
	// Gen generates the base trace (system model, job count, seed, load).
	Gen GenConfig `json:"gen"`
	// Variant derives one of the paper's workload variants (S1–S7, or
	// empty/"original" for the unmodified trace).
	Variant string `json:"variant,omitempty"`
	// VariantSeed seeds the variant's expansion draws.
	VariantSeed uint64 `json:"variant_seed,omitempty"`
	// StageOutGBps, when positive, applies burst-buffer stage-out phases
	// at the given drain rate after the variant.
	StageOutGBps float64 `json:"stage_out_gbps,omitempty"`
	// Stream drives the run through the streaming ingestion path: Open
	// returns a fresh single-use source (a farm worker re-opens it on
	// every retry and checkpoint resume) instead of materializing the
	// trace, and the run uses bounded-memory streaming metrics.
	Stream bool `json:"stream,omitempty"`
	// TracePath streams jobs from an on-disk trace instead of the
	// generator: ".swf" decodes as an SWF archive log, anything else as
	// the repository CSV format, and a ".gz" suffix decompresses
	// transparently. Stream must be true; Gen.System still names the
	// machine model. Every farm worker must see the identical file at
	// this path — the recipe key covers the path, not the bytes.
	TracePath string `json:"trace_path,omitempty"`
	// MaxJobs caps a TracePath stream (0 = the whole file).
	MaxJobs int `json:"max_jobs,omitempty"`
}

// SystemByName returns the named machine model ("cori" or "theta", in
// any case) scaled down by scale (1 = full size; see Scale).
func SystemByName(name string, scale int) (SystemModel, error) {
	if scale < 1 {
		return SystemModel{}, fmt.Errorf("trace: machine scale %d (want >= 1; 1 = full size)", scale)
	}
	switch strings.ToLower(name) {
	case "cori":
		return Scale(Cori(), scale), nil
	case "theta":
		return Scale(Theta(), scale), nil
	}
	return SystemModel{}, fmt.Errorf("trace: unknown system %q (want cori or theta)", name)
}

// label names the recipe in errors: its Name, else its trace file, else
// its machine.
func (r Recipe) label() string {
	return cmp.Or(r.Name, r.TracePath, r.Gen.System.Cluster.Name)
}

// Validate rejects a recipe that cannot build: a trace file outside the
// streaming path, a negative file cap, a generator asked for no jobs, or
// a variant that does not exist.
func (r Recipe) Validate() error {
	if r.TracePath != "" {
		if !r.Stream {
			return fmt.Errorf("trace: workload %q: trace_path requires stream (trace files replay through the streaming path)", r.label())
		}
		if r.MaxJobs < 0 {
			return fmt.Errorf("trace: workload %q: negative max_jobs %d", r.label(), r.MaxJobs)
		}
	} else if r.Gen.Jobs <= 0 {
		return fmt.Errorf("trace: workload %q generates %d jobs", r.label(), r.Gen.Jobs)
	}
	if _, err := lookupVariant(r.Variant); err != nil {
		return fmt.Errorf("trace: workload %q: unknown variant %q (have %s)",
			r.label(), r.Variant, strings.Join(Variants(), ", "))
	}
	return nil
}

// System returns the machine the recipe's jobs run on, the one Build and
// Open return, without generating or opening anything: Gen.System, with
// the §5 local-SSD node classes (WithSSD) for the S5–S7 variants.
func (r Recipe) System() SystemModel {
	if IsSSDVariant(r.Variant) {
		return WithSSD(r.Gen.System)
	}
	return r.Gen.System
}

// Build materializes the recipe (Stream must be false): Generate, then
// ApplyVariant, then WithStageOut.
func (r Recipe) Build() (Workload, error) {
	if r.Stream {
		return Workload{}, fmt.Errorf("trace: workload %q is stream-backed; use Open", r.label())
	}
	w, err := ApplyVariant(Generate(r.Gen), r.Variant, r.VariantSeed)
	if err != nil {
		return Workload{}, fmt.Errorf("trace: workload %q: %w", r.label(), err)
	}
	if r.StageOutGBps > 0 {
		w = WithStageOut(w, r.StageOutGBps)
	}
	if r.Name != "" {
		w.Name = r.Name
	}
	return w, nil
}

// Open opens a fresh streaming pipeline for a stream-backed recipe: the
// job-less workload shell and a single-use source — OpenTrace capped by
// LimitSource, or GenSource — under ApplyVariantSource and
// StageOutSource. A farm worker re-opens the source from the top on every
// attempt; checkpoint restore repositions it by replaying the consumed
// prefix, so stateful variant combinators stay in sync.
func (r Recipe) Open() (Workload, JobSource, error) {
	if !r.Stream {
		return Workload{}, nil, fmt.Errorf("trace: workload %q is materialized; use Build", r.label())
	}
	var src JobSource
	if r.TracePath == "" {
		src = GenSource(r.Gen)
	} else {
		var err error
		if src, err = OpenTrace(r.TracePath, SWFOptions{}); err != nil {
			return Workload{}, nil, fmt.Errorf("trace: workload %q: %w", r.label(), err)
		}
		if r.MaxJobs > 0 {
			src = LimitSource(src, r.MaxJobs)
		}
	}
	out, sys, name, err := ApplyVariantSource(src, r.Gen.System, r.Variant, r.VariantSeed)
	if err != nil {
		if c, ok := src.(Closer); ok {
			c.Close()
		}
		return Workload{}, nil, fmt.Errorf("trace: workload %q: %w", r.label(), err)
	}
	if r.Name != "" {
		name = r.Name
	}
	return Workload{Name: name, System: sys}, StageOutSource(out, r.StageOutGBps), nil
}
