package farm

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"bbsched/internal/moo"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// matGrid is a cheap materialized-only grid: one 40-job workload swept
// under two heuristic methods for the given seeds.
func matGrid(seeds ...uint64) Grid {
	sys := trace.Scale(trace.Cori(), 128)
	return Grid{
		Workloads: []WorkloadSpec{
			{Name: "farm-mat", Gen: trace.GenConfig{System: sys, Jobs: 40, Seed: 5}},
		},
		Methods: []MethodSpec{
			{Name: "Baseline", GA: testGA()},
			{Name: "Bin_Packing", GA: testGA()},
		},
		Seeds:            seeds,
		Opts:             RunOptions{Window: 5, StarvationBound: 50, Measure: "full"},
		CheckpointEvents: 5,
	}
}

// runFarm serves coord and drives the workers until the sweep drains,
// failing the test on a sweep error or any worker transport error.
func runFarm(t *testing.T, coord *Coordinator, workers []*Worker, timeout time.Duration) []sim.SweepRun {
	t.Helper()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		w.Coordinator = srv.URL
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}(i, w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	runs, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return runs
}

// TestRecipeKey: the content address is stable, collision-free across a
// grid, and sensitive to every recipe axis.
func TestRecipeKey(t *testing.T) {
	cells := testGrid().Cells()
	k0, err := RecipeKey(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(k0) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k0)
	}
	if again, _ := RecipeKey(cells[0]); again != k0 {
		t.Fatalf("key not stable: %s vs %s", k0, again)
	}
	// Stable across commits too. The grid literal was computed at the
	// commit before RunOptions lost its per-solve worker count (omitempty,
	// so never hashed) and moo.GAConfig lost Parallelism (no tag, so always
	// hashed — as 0, which methodWire keeps writing). The key literal moved
	// once since, on purpose: the key hashes checkpoint.Version, which went
	// 2 → 3 when finished jobs left the snapshot, and a result cached beside
	// relay snapshots no build can restore is rightly orphaned. It moved
	// again when recipeKeySchema went 1 → 2: the lp backend stopped
	// carrying state between scheduling passes, so *_LP recipes produce
	// other Results and their cached ones must not be served. It moved a
	// third time when checkpoint.Version went 3 → 4 (a materialized
	// workload's jobs named by hash, a CRC-32C trailer), and a fourth when
	// recipeKeySchema went 2 → 3: Weighted_LP with SSD on a machine
	// without extra dimensions now optimizes all four §5 objectives. A
	// change that moves either orphans every cache entry and journal in
	// the field; if that is meant, bump recipeKeySchema and re-pin.
	if want := "590da1619ef70a1d5262ba1542af45c8980ce836e56ca1b49b656333d79f7744"; k0 != want {
		t.Fatalf("recipe key of the first test cell moved: %s, want %s", k0, want)
	}
	if got, want := gridSHA(testGrid()), "3a4d14f28caa40f3fd9efee048051fb195b6b12a7b204d8a251d5a310f395599"; got != want {
		t.Fatalf("journal identity of the test grid moved: %s, want %s", got, want)
	}
	seen := map[string]bool{k0: true}
	for _, c := range cells[1:] {
		k, err := RecipeKey(c)
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Fatalf("distinct cells share key %s", k)
		}
		seen[k] = true
	}
	mut := cells[0]
	mut.Seed++
	if k, _ := RecipeKey(mut); k == k0 {
		t.Fatal("seed change did not change the key")
	}
	mut = cells[0]
	mut.Opts.Window++
	if k, _ := RecipeKey(mut); k == k0 {
		t.Fatal("run-option change did not change the key")
	}
	mut = cells[0]
	mut.Solver = "greedy"
	if k, _ := RecipeKey(mut); k == k0 {
		t.Fatal("solver change did not change the key")
	}
}

// TestMethodSpecWire: every moo.GAConfig field survives the wire (a field
// added there must be added to methodWire), the retired Parallelism,
// Archive and Selection fields are written as their zero values and
// accepted as those only, a default spec's wire form is the one every
// grid file, recipe key and journal has used, and the decode is strict.
func TestMethodSpecWire(t *testing.T) {
	in := MethodSpec{Name: "BBSched", SSD: true}
	ga := reflect.ValueOf(&in.GA).Elem()
	for i := 0; i < ga.NumField(); i++ {
		switch f := ga.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(0.25)
		default:
			t.Fatalf("GAConfig.%s: unhandled kind %s", ga.Type().Field(i).Name, f.Kind())
		}
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"name":"BBSched","ga":{"Generations":1,"Population":2,"MutationProb":0.25,"Parallelism":0,"Archive":false,"Selection":0},"ssd":true}`; string(data) != want {
		t.Fatalf("wire form %s, want %s", data, want)
	}
	var out MethodSpec
	if err := json.Unmarshal(data, &out); err != nil || out != in {
		t.Fatalf("round trip gave %+v (err %v), want %+v", out, err, in)
	}
	def, err := json.Marshal(MethodSpec{Name: "BBSched", GA: moo.DefaultGAConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"name":"BBSched","ga":{"Generations":500,"Population":20,"MutationProb":0.0005,"Parallelism":0,"Archive":false,"Selection":0}}`; string(def) != want {
		t.Fatalf("default wire form %s, want %s", def, want)
	}
	for _, bad := range []string{
		`{"name":"BBSched","ga":{"Parallelism":4}}`,
		`{"name":"BBSched","ga":{"Archive":true}}`,
		`{"name":"BBSched","ga":{"Selection":1}}`,
		`{"name":"BBSched","ga":{"Generatoins":60}}`,
		`{"name":"BBSched","sdd":true}`,
	} {
		if err := json.Unmarshal([]byte(bad), &out); err == nil {
			t.Errorf("%s decoded without error", bad)
		}
	}
}

// TestFarmCacheHitsBitIdentical: a second farm run over the same grid
// with a shared cache directory answers every cell from disk — no
// simulation — and the assembled results are bit-identical to the run
// that stored them, wall-clock fields included.
func TestFarmCacheHitsBitIdentical(t *testing.T) {
	g := matGrid(3)
	want := serialReference(t, g)
	dir := t.TempDir()
	cells := len(g.Cells())

	coord1, err := NewCoordinator(g)
	if err != nil {
		t.Fatal(err)
	}
	cold := &Worker{ID: "cold", Poll: 5 * time.Millisecond, CacheDir: dir}
	first := runFarm(t, coord1, []*Worker{cold}, 2*time.Minute)
	if st := cold.Stats(); st.CacheHits != 0 || st.CacheStores != cells {
		t.Fatalf("cold run stats %+v, want 0 hits and %d stores", st, cells)
	}
	compareRuns(t, first, want)

	coord2, err := NewCoordinator(g)
	if err != nil {
		t.Fatal(err)
	}
	warm := &Worker{ID: "warm", Poll: 5 * time.Millisecond, CacheDir: dir}
	second := runFarm(t, coord2, []*Worker{warm}, 2*time.Minute)
	if st := warm.Stats(); st.CacheHits != cells || st.CacheStores != 0 {
		t.Fatalf("warm run stats %+v, want %d hits and 0 stores", st, cells)
	}
	compareRuns(t, second, want)
	for i := range first {
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Errorf("cell %d (%s/%s): cache-hit Result differs from the run that stored it",
				i, first[i].Workload, first[i].Method)
		}
	}
}

// TestFarmDuplicateCellsLeasedOnce: cells sharing a recipe key within
// one grid are simulated once; the coordinator fans the result out to
// the aliases instead of leasing them.
func TestFarmDuplicateCellsLeasedOnce(t *testing.T) {
	g := matGrid(3, 3) // duplicate seed axis: 4 cells, 2 distinct recipes
	want := serialReference(t, g)
	coord, err := NewCoordinator(g)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{ID: "solo", Poll: 5 * time.Millisecond}
	got := runFarm(t, coord, []*Worker{w}, 2*time.Minute)
	if st := coord.Stats(); st.Deduped != 2 {
		t.Fatalf("Deduped = %d, want 2", st.Deduped)
	}
	if st := w.Stats(); st.Leases != 2 || st.Completed != 2 {
		t.Fatalf("worker stats %+v: duplicate cells must be leased exactly once", st)
	}
	compareRuns(t, got, want)
}

// TestFarmResultPostOutlivesCancel: a worker cancelled while its result
// post is in flight still hears the ack and caches the accepted result.
// Callers cancel their workers as soon as Wait returns, which is exactly
// between the coordinator's accept and the ack of the last result.
func TestFarmResultPostOutlivesCancel(t *testing.T) {
	g := matGrid(3)
	g.Methods = g.Methods[:1] // one cell
	coord, err := NewCoordinator(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/result" {
			cancel()
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	w := &Worker{Coordinator: srv.URL, ID: "cancelled", Poll: 2 * time.Millisecond, CacheDir: t.TempDir()}
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if st := w.Stats(); st.Completed != 1 || st.CacheStores != 1 {
		t.Fatalf("worker stats %+v, want the result posted and cached", st)
	}
}
