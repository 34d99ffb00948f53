package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bbsched/internal/checkpoint"
	"bbsched/internal/sim"
)

// Content-addressed result cache. Every grid cell is deterministic in its
// recipe — the workload is regenerated, the method rebuilt, the engine
// reseeded — so a canonical hash of the recipe identifies the cell's
// Result exactly: any two cells with equal keys produce bit-identical
// Results, on any worker, at any time. That single property funds three
// layers of recompute avoidance: workers answer repeat cells from an
// on-disk cache without simulating (Worker.CacheDir), the coordinator
// leases duplicate in-grid cells once and fans the one result out, and
// overlapping grids re-run near-free across sweeps.

// recipeKeySchema versions the key derivation itself; bump it whenever
// the hashed material or its encoding changes so stale cache entries can
// never be mistaken for current ones. It has moved twice because the
// results a recipe produces changed while the hashed material did not:
// to 2 when the lp backend stopped carrying a warm start from one
// scheduling pass to the next, which moved every *_LP cell's Result, and
// to 3 when Weighted_LP with SSD on a machine without extra dimensions
// began optimizing all four §5 objectives instead of two. Until the key
// hashes an engine version, a change of results bumps this constant.
const recipeKeySchema = 3

// recipe is the canonical hashed material. Field order is fixed and the
// encoding is encoding/json with its deterministic struct-field order, so
// the hash is stable across processes and architectures. The snapshot
// format version is included because a Result's provenance contract —
// "this is what replaying the recipe produces" — is only meaningful
// within one engine snapshot generation.
type recipe struct {
	Schema   int          `json:"schema"`
	Snapshot int          `json:"snapshot"`
	Workload WorkloadSpec `json:"workload"`
	Method   MethodSpec   `json:"method"`
	Solver   string       `json:"solver"`
	Seed     uint64       `json:"seed"`
	Opts     RunOptions   `json:"opts"`
}

// RecipeKey returns the content-addressed identity of a grid cell: the
// hex SHA-256 of the canonical JSON encoding of (WorkloadSpec,
// MethodSpec, solver, RunOptions, seed) plus the engine snapshot format
// version. Two cells with equal keys are guaranteed to produce
// bit-identical Results. For TracePath-backed workloads the key covers
// the path, not the file bytes — trace files are assumed immutable and
// identical on every worker.
func RecipeKey(c Cell) (string, error) {
	data, err := json.Marshal(recipe{
		Schema:   recipeKeySchema,
		Snapshot: checkpoint.Version,
		Workload: c.Workload,
		Method:   c.Method,
		Solver:   c.Solver,
		Seed:     c.Seed,
		Opts:     c.Opts,
	})
	if err != nil {
		return "", fmt.Errorf("farm: recipe key: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// cachePath places one entry per key in dir (the key is already hex, so
// it is filesystem-safe).
func cachePath(dir, key string) string {
	return filepath.Join(dir, key+".json")
}

// loadCachedResult returns the cached Result for key, or (nil, false) on
// any miss — absent, unreadable, or corrupt entries all read as misses so
// a damaged cache degrades to recomputation, never to failure.
func loadCachedResult(dir, key string) (*sim.Result, bool) {
	data, err := os.ReadFile(cachePath(dir, key))
	if err != nil {
		return nil, false
	}
	var res sim.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// storeCachedResult writes the Result under key with a same-directory
// tmp+rename so concurrent workers sharing one cache directory never
// observe a torn entry. Two writers of one key may differ in the
// wall-clock AvgDecisionTime/MaxDecisionTime, and the last rename wins,
// so a worker stores only the result the coordinator accepted for the
// cell, the one the assembled grid holds.
func storeCachedResult(dir, key string, res *sim.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), cachePath(dir, key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
