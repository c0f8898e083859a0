package sweep

import (
	"bytes"
	"os"
	"testing"

	"flexvc/internal/results"
	"flexvc/internal/sim"
)

// TestExportWorkerInvariant is the export-layer half of the worker-count
// bit-identity contract: the full fig5 experiment — MIN, VAL and PB variants
// over both VC policies — run through the checkpointed store with one worker
// and with four must write byte-identical results exports. Replications
// complete and land in the store in a different order at each budget, so
// this pins that exports depend on the experiment alone, not on scheduling.
func TestExportWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2x14 small-scale points")
	}
	defer sim.SetWorkerBudget(sim.WorkerBudget())
	title := Registry()["fig5"].Title
	export := func(workers int) []byte {
		t.Helper()
		sim.SetWorkerBudget(workers)
		store, err := results.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Scale: "small", Seeds: 1, Quick: true, Loads: []float64{0.2}, Results: store}
		if _, err := Run("fig5", o); err != nil {
			t.Fatal(err)
		}
		path, err := store.WriteExport("fig5", title)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	want := export(1)
	if got := export(4); !bytes.Equal(got, want) {
		t.Errorf("fig5 export with 4 workers differs from the 1-worker export\n--- 1 worker (%d bytes) ---\n%.2000s\n--- 4 workers (%d bytes) ---\n%.2000s",
			len(want), want, len(got), got)
	}
}
