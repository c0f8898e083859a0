package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/obs"
	"flexvc/internal/routing"
)

// TestMetricsExcludedFromIdentity pins that the Metrics registry is an
// execution detail, not part of the experiment identity: the JSON form of a
// configuration (the input of results.Fingerprint, checkpoint keys and
// recorded exports) must not change when a registry is attached, or metered
// runs would orphan the checkpoints of unmetered ones.
func TestMetricsExcludedFromIdentity(t *testing.T) {
	plain := config.Small()
	metered := config.Small()
	metered.Metrics = obs.NewRegistry()
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(metered)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Metrics leaks into the config JSON identity:\n plain:   %s\n metered: %s", a, b)
	}
}

// TestMeteredRunMatchesSerial is the result-level half of the zero-impact
// contract: a metered replication must produce exactly the result of an
// unmetered one — the phase timing in Step may add clock reads, never
// behaviour.
func TestMeteredRunMatchesSerial(t *testing.T) {
	cfg := config.Small()
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 800
	want, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Metrics = obs.NewRegistry()
	got, err := RunOne(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("metered run diverged from the unmetered run")
	}
	snap := c.Metrics.Snapshot()
	if snap.Counters[MetricCycles] == 0 {
		t.Error("no cycles recorded — instrumentation never ran")
	}
	for _, label := range phaseLabels {
		if _, ok := snap.Counters[MetricPhaseWall+`{phase="`+label+`"}`]; !ok {
			t.Errorf("no %s phase series in snapshot", label)
		}
	}
	if snap.Histograms[MetricReplicationWall].Count != 1 {
		t.Errorf("replication wall histogram count = %d, want 1", snap.Histograms[MetricReplicationWall].Count)
	}
}

// TestStepAllocsMetricsOnOff pins the single cycle-loop body: the phase
// timing Step does with a registry attached must not allocate, so a metered
// and an unmetered network built from the same warmed-up configuration
// allocate exactly as much per cycle.
func TestStepAllocsMetricsOnOff(t *testing.T) {
	cfg := config.Small()
	cfg.Load = 0.5
	build := func(reg *obs.Registry) *Network {
		c := cfg
		c.Metrics = reg
		n, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		n.RunCycles(1000) // warm up: buffers, store and wheel slots at size
		return n
	}
	plain, metered := build(nil), build(obs.NewRegistry())
	off := testing.AllocsPerRun(5, func() { plain.RunCycles(100) })
	on := testing.AllocsPerRun(5, func() { metered.RunCycles(100) })
	if on != off {
		t.Fatalf("metered cycles allocate %v per 100 cycles, unmetered %v", on, off)
	}
	if plain.Collector().TotalDelivered() == 0 {
		t.Fatal("no packet delivered; the comparison is vacuous")
	}
}

// churnConfig is the small PAR/FlexVC configuration the budget-churn tests
// run: short enough for -race, adaptive so every router phase is exercised.
func churnConfig() config.Config {
	cfg := config.Small()
	cfg.Routing = routing.PAR
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(5, 2), Selection: core.JSQ}
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 800
	return cfg
}

// underBudgetChurn runs work(0..runs-1) concurrently while one goroutine
// keeps resizing the process-wide worker budget and, when reg is non-nil,
// another snapshots and renders reg. It returns each run's error.
func underBudgetChurn(reg *obs.Registry, runs int, work func(i int) error) []error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer SetWorkerBudget(WorkerBudget())

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // budget churn
		defer aux.Done()
		size := 1
		for {
			select {
			case <-stop:
				return
			default:
				SetWorkerBudget(size%4 + 1)
				size++
			}
		}
	}()
	if reg != nil {
		aux.Add(1)
		go func() { // concurrent scraper
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var buf bytes.Buffer
					_ = reg.WritePrometheus(&buf)
					_ = reg.Snapshot()
				}
			}
		}()
	}

	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = work(i)
		}(i)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	return errs
}

// TestMetricsUnderBudgetChurn is the -race proof for the metrics hot path:
// metered replications run concurrently on the worker budget and report into
// one shared registry while the budget churns and scraper goroutines
// snapshot and render the registry — and every replication must still be
// bit-identical to the unmetered one.
func TestMetricsUnderBudgetChurn(t *testing.T) {
	cfg := churnConfig()
	want, _, err := RunReplication(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	const runs = 6
	errs := underBudgetChurn(reg, runs, func(i int) error {
		c := cfg
		c.Metrics = reg
		got, _, err := RunReplication(c, 0)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("metered run %d diverged from the unmetered run under budget churn", i)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := reg.Counter(MetricReplications).Value(); n != runs {
		t.Errorf("registry counted %d replications, want %d", n, runs)
	}
}

// averagedUnderChurn runs `runs` concurrent RunAveraged(cfg, seeds) calls
// under underBudgetChurn, each with reg attached, and checks every aggregate
// and every per-replication result against want and wantRuns.
func averagedUnderChurn(t *testing.T, cfg config.Config, reg *obs.Registry, runs, seeds int) {
	t.Helper()
	SetWorkerBudget(1)
	want, wantRuns, err := RunAveraged(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	errs := underBudgetChurn(reg, runs, func(i int) error {
		c := cfg
		c.Metrics = reg
		got, gotRuns, err := RunAveraged(c, seeds)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRuns, wantRuns) {
			return fmt.Errorf("averaged run %d diverged from the budget-1 run under budget churn", i)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestShardedRunUnderBudgetChurn covers the one way a run parallelises:
// RunAveraged shards its replications across the worker budget. Concurrent
// runs must stay bit-identical to a run at budget 1, replication by
// replication, while the budget churns. Under -race this is the proof that
// acquirers release into the pool they acquired from across
// SetWorkerBudget's atomic swap.
func TestShardedRunUnderBudgetChurn(t *testing.T) {
	defer SetWorkerBudget(WorkerBudget())
	averagedUnderChurn(t, churnConfig(), nil, 4, 3)
}

// TestMetricsUnderShardedBudgetChurn is TestShardedRunUnderBudgetChurn with
// every replication metered into one shared registry that a scraper renders
// concurrently: the registry must count every replication and the results
// must not move.
func TestMetricsUnderShardedBudgetChurn(t *testing.T) {
	defer SetWorkerBudget(WorkerBudget())
	const runs, seeds = 4, 3
	reg := obs.NewRegistry()
	averagedUnderChurn(t, churnConfig(), reg, runs, seeds)
	if n := reg.Counter(MetricReplications).Value(); n != runs*seeds {
		t.Errorf("registry counted %d replications, want %d", n, runs*seeds)
	}
}
