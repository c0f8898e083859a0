package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"flexvc/internal/campaign"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/obs"
	"flexvc/internal/packet"
	"flexvc/internal/results"
	"flexvc/internal/routing"
	"flexvc/internal/sim"
	"flexvc/internal/stats"
	"flexvc/internal/sweep"
	"flexvc/internal/topology"
)

//go:embed adaptive.json
var adaptiveSpec []byte

// committedFig5 is the recorded small-scale fig5 export, relative to the
// repository root the benchmark runs from.
const committedFig5 = "experiments/fig5-small/fig5.results.json"

// size fixes how much simulated work one pass of each workload does.
type size struct {
	// mediumWarmup and mediumMeasure are the cycle windows of the
	// medium-un-min replication.
	mediumWarmup, mediumMeasure int64
	// adaptiveSeeds and fig5Seeds are the replications per sweep point.
	adaptiveSeeds, fig5Seeds int
	// campaignWarmup and campaignMeasure, when positive, replace the small
	// scale's cycle windows in both campaigns.
	campaignWarmup, campaignMeasure int64
	// Before its passes a run sets the workload up at least setups times
	// and for at least setupTime, and after each pass of an untraced run
	// again for at least setupRound, so that setup_s is a median of many
	// samples spread over the whole run: a set-up of a millisecond is
	// mostly fsync and parsing, whose speed drifts on a shared host from
	// one second to the next. maxSetups caps the count of one round.
	setups                int
	setupTime, setupRound time.Duration
}

const maxSetups = 500

// sizes: "full" is what the benchmark measures; "quick" is a few hundred
// cycles per replication, for the self-test.
var sizes = map[string]size{
	"full":  {mediumWarmup: 1000, mediumMeasure: 1500, adaptiveSeeds: 3, fig5Seeds: 1, setups: 25, setupTime: time.Second, setupRound: 200 * time.Millisecond},
	"quick": {mediumWarmup: 500, mediumMeasure: 300, adaptiveSeeds: 1, fig5Seeds: 1, campaignWarmup: 100, campaignMeasure: 300, setups: 3},
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// serial runs the workload with GOMAXPROCS 1, so that auto-sharding
	// keeps a single replication on one shard.
	serial bool
	// setup prepares one pass; the benchmark times it as set-up.
	setup func(r *runner) (pass, error)
}

// pass is one prepared pass of a workload.
type pass interface {
	// run executes the timed section and fills p.
	run(r *runner, p *passResult) error
	// release frees what setup prepared.
	release()
}

var workloads = []workload{
	// medium-un-min runs on one core. Split into two shards it steps in
	// lock-step across both cores, and whenever the shared host takes time
	// from either core both shards wait: its pass time then swung by half
	// while its CPU time held steady.
	{name: "medium-un-min", serial: true, setup: setupMedium},
	{name: "small-adaptive-rr", setup: campaignSetup("small-adaptive-rr", func() (*campaign.Campaign, error) {
		return campaign.Parse(adaptiveSpec)
	}, func(s size) int { return s.adaptiveSeeds }, "")},
	{name: "small-fig5-oblivious", setup: campaignSetup("small-fig5-oblivious", func() (*campaign.Campaign, error) {
		return campaign.Builtin("fig5")
	}, func(s size) int { return s.fig5Seeds }, committedFig5)},
}

// passResult is what one pass of a workload measured and checked.
type passResult struct {
	setup, wall, cpu, resume time.Duration
	allocBytes, mallocs      uint64
	gcCycles                 uint32
	gcPause                  time.Duration
	// routerCycles sums routers x simulated cycles over the replications.
	routerCycles float64
	replications int
	// repWalls holds each replication's wall time in seconds.
	repWalls []float64
	// digest covers every replication's key and stats.Result.
	digest string
	shards int
	// failed counts replications that errored or failed a check; problems
	// says why.
	failed   int
	problems []string
	// layer holds the per-layer metrics of a traced pass (nil otherwise).
	layer map[string]float64
}

func (p *passResult) fail(format string, args ...any) {
	p.failed = p.replications
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// addLayer accumulates a per-layer value; untraced passes have no map and
// ignore it.
func (p *passResult) addLayer(name string, v float64) {
	if p.layer != nil {
		p.layer[name] += v
	}
}

// meter brackets a timed section: wall clock, process CPU time and the Go
// runtime's allocation and GC counters.
type meter struct {
	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats
}

func startMeter() *meter {
	m := &meter{cpu: processCPU()}
	runtime.ReadMemStats(&m.ms)
	m.start = time.Now()
	return m
}

func (m *meter) stop(p *passResult) {
	p.wall = time.Since(m.start)
	p.cpu = processCPU() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - m.ms.TotalAlloc
	p.mallocs = ms.Mallocs - m.ms.Mallocs
	p.gcCycles = ms.NumGC - m.ms.NumGC
	p.gcPause = time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs)
}

// processCPU is the user plus system CPU time of the process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail, as above
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// replication is the part of one replication the digest covers: its key
// and its simulated result. Wall times, revisions and config fingerprints
// are left out.
type replication struct {
	Section string       `json:"section"`
	Variant string       `json:"variant"`
	Load    float64      `json:"load"`
	Seed    int          `json:"seed"`
	SimSeed int64        `json:"sim_seed"`
	Result  stats.Result `json:"result"`
}

func digest(reps []replication) (string, error) {
	h := sha256.New()
	for _, r := range reps {
		b, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		h.Write(append(b, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// tablesSpan times building the Dragonfly at the given scale with its route
// tables, as sim.New does for every replication.
func tablesSpan(r *runner, cfg config.Config, p *passResult) error {
	end := r.tr.span("topology.NewBalancedDragonfly+PrecomputeTables")
	df, err := topology.NewBalancedDragonfly(cfg.H)
	if err == nil {
		df.PrecomputeTables(cfg.RouteTableBytes)
	}
	p.addLayer("topology.tables_s", end())
	return err
}

// registryLayer derives the per-layer metrics the obs registry of a traced
// pass holds. hops is the summed delivered packets x average hops.
func registryLayer(reg *obs.Registry, p *passResult, hops float64) error {
	s := reg.Snapshot()
	phase := func(name string) float64 {
		return float64(s.Counters[sim.MetricPhaseWall+`{phase="`+name+`"}`]) / 1e9
	}
	for _, ph := range []string{"events", "inject", "pb_update", "step"} {
		p.addLayer("sim.phase."+ph+"_s", phase(ph))
	}
	p.addLayer("sim.wheel_depth_hwm", float64(s.Gauges[sim.MetricWheelDepthHWM]))
	if hops > 0 {
		p.addLayer("router.step_ns_per_hop", phase("step")*1e9/hops)
	}
	put := s.Histograms[results.MetricPutLatency]
	for _, q := range []struct {
		name string
		q    float64
	}{{"results.put_p50_ms", 0.5}, {"results.put_p99_ms", 0.99}} {
		v, err := histQuantile(put, q.q)
		if err != nil {
			return fmt.Errorf("%s: %w", results.MetricPutLatency, err)
		}
		p.addLayer(q.name, v/1e6)
	}
	p.addLayer("results.put_total_s", float64(put.Sum)/1e9)
	p.addLayer("runtime.gc_cycles", float64(p.gcCycles))
	p.addLayer("runtime.gc_pause_s", p.gcPause.Seconds())
	return nil
}

// --- medium-un-min ----------------------------------------------------------

// mediumConfig is the medium-un-min replication: the 264-router Dragonfly
// under uniform traffic with minimal routing and FlexVC 4/2 JSQ, below
// saturation.
func mediumConfig(r *runner) config.Config {
	c := config.Medium()
	c.Traffic = config.TrafficUniform
	c.Routing = routing.MIN
	c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.JSQ}
	c.Load = 0.7
	c.Seed = r.o.seed
	c.WarmupCycles = r.size.mediumWarmup
	c.MeasureCycles = r.size.mediumMeasure
	c.Metrics = r.reg
	return c
}

type mediumPass struct {
	cfg  config.Config
	net  *sim.Network
	newS float64
}

func setupMedium(r *runner) (pass, error) {
	cfg := mediumConfig(r)
	end := r.tr.span("sim.New")
	net, err := sim.New(cfg)
	newS := end()
	if err != nil {
		return nil, fmt.Errorf("sim.New: %w", err)
	}
	return &mediumPass{cfg: cfg, net: net, newS: newS}, nil
}

func (m *mediumPass) release() {}

func (m *mediumPass) run(r *runner, p *passResult) error {
	mt := startMeter()
	end := r.tr.span("Network.Run")
	res := m.net.Run()
	end()
	mt.stop(p)

	n := m.net
	p.replications = 1
	p.repWalls = []float64{p.wall.Seconds()}
	p.routerCycles = float64(n.Topology().NumRouters()) * float64(res.SimulatedCycles)
	p.shards = n.Shards()
	var err error
	p.digest, err = digest([]replication{{Section: "medium-un-min", Variant: "FlexVC 4/2 JSQ", Load: m.cfg.Load, SimSeed: m.cfg.Seed, Result: res}})
	if err != nil {
		return err
	}
	if res.Deadlock {
		p.fail("medium-un-min deadlocked at cycle %d", res.SimulatedCycles)
	}
	// Load 0.7 is below saturation, so the network must accept what is
	// offered.
	if math.Abs(res.AcceptedLoad-m.cfg.Load) > 0.02*m.cfg.Load {
		p.fail("accepted load %.4f, offered %.2f", res.AcceptedLoad, m.cfg.Load)
	}
	if p.layer == nil {
		return nil
	}
	var grants int64
	for i := 0; i < n.Topology().NumRouters(); i++ {
		grants += n.Router(packet.RouterID(i)).Grants()
	}
	p.addLayer("router.grants", float64(grants))
	if grants > 0 {
		s := r.reg.Snapshot()
		step := float64(s.Counters[sim.MetricPhaseWall+`{phase="step"}`])
		p.addLayer("router.step_ns_per_grant", step/float64(grants))
	}
	news, reuses := n.Store().Stats()
	p.addLayer("packet.store_slots", float64(n.Store().Slots()))
	if news+reuses > 0 {
		p.addLayer("packet.reuse_ratio", float64(reuses)/float64(news+reuses))
	}
	if res.Deadlock {
		p.addLayer("sim.deadlocked_replications", 1)
	}
	p.addLayer("sim.new_s", m.newS)
	if err := tablesSpan(r, m.cfg, p); err != nil {
		return err
	}
	return registryLayer(r.reg, p, float64(res.DeliveredPackets)*res.AvgHops)
}

// --- campaign workloads -----------------------------------------------------

type campaignPass struct {
	seeds     int
	committed string
	camp      *campaign.Campaign
	sections  []campaign.CompiledSection
	dir       string
	store     *results.Store
	compileS  float64
}

// campaignSetup returns the set-up of a campaign workload: load and compile
// the spec and open a fresh results store. committed, when set, names a
// recorded export the records must equal at the pinned seed.
func campaignSetup(name string, load func() (*campaign.Campaign, error), seeds func(size) int, committed string) func(r *runner) (pass, error) {
	return func(r *runner) (pass, error) {
		c := &campaignPass{seeds: seeds(r.size), committed: committed}
		end := r.tr.span("campaign.Parse")
		camp, err := load()
		end()
		if err != nil {
			return nil, err
		}
		end = r.tr.span("campaign.Compile")
		c.sections, err = camp.Compile()
		c.compileS = end()
		if err != nil {
			return nil, err
		}
		c.camp = camp
		if c.dir, err = os.MkdirTemp(r.work, name+"-"); err != nil {
			return nil, err
		}
		end = r.tr.span("results.Open")
		c.store, err = results.Open(c.dir)
		end()
		if err != nil {
			c.release()
			return nil, err
		}
		if r.reg != nil {
			c.store.SetMetrics(r.reg)
		}
		return c, nil
	}
}

// release removes the pass's results store. An error only leaves files
// behind in the run's work directory, which the run removes as a whole.
func (c *campaignPass) release() { _ = os.RemoveAll(c.dir) }

// options returns the sweep options of one run of the campaign against store
// and the configuration every section starts from: the spec's scale, the
// benchmark's seed and, at reduced size, shorter windows.
func (c *campaignPass) options(r *runner, store *results.Store, summary *sweep.Progress) (sweep.Options, config.Config, error) {
	opts := sweep.Options{
		Scale:   c.camp.Scale,
		Seeds:   c.seeds,
		Results: store,
		Metrics: r.reg,
		Progress: func(p sweep.Progress) {
			if p.Summary {
				*summary = p
			}
		},
	}
	base, err := opts.BaseConfig()
	if err != nil {
		return opts, base, err
	}
	base.Seed = r.o.seed
	if r.size.campaignMeasure > 0 {
		base.WarmupCycles = r.size.campaignWarmup
		base.MeasureCycles = r.size.campaignMeasure
	}
	return opts, base, nil
}

// phaseTimes are the durations of one execute call's layer calls; zero in
// untraced passes.
type phaseTimes struct{ sections, export, render float64 }

// execute runs every section of the campaign against store through the
// section runner, then exports and renders the results. It returns the
// export as read back from disk and the run's progress summary.
func (c *campaignPass) execute(r *runner, store *results.Store) (*results.File, sweep.Progress, phaseTimes, error) {
	var summary sweep.Progress
	var t phaseTimes
	opts, base, err := c.options(r, store, &summary)
	if err != nil {
		return nil, summary, t, err
	}
	runner := opts.NewRunner(c.camp.Name)
	for _, sec := range c.sections {
		b := base
		b.Scenario = sec.Scenario
		end := r.tr.span("sweep.RunSection")
		_, err := runner.RunSection(sec.Title, b, sec.Variants, runner.EffectiveLoads(sec.Loads))
		t.sections += end()
		if err != nil {
			return nil, summary, t, fmt.Errorf("section %q: %w", sec.Title, err)
		}
	}
	end := r.tr.span("sweep.Finish")
	runner.Finish()
	end()
	end = r.tr.span("results.WriteExport")
	path, err := store.WriteExport(c.camp.Name, c.camp.ReportTitle())
	t.export = end()
	if err != nil {
		return nil, summary, t, err
	}
	end = r.tr.span("results.LoadFile")
	f, err := results.LoadFile(path)
	end()
	if err != nil {
		return nil, summary, t, err
	}
	end = r.tr.span("sweep.RenderResultsMarkdown")
	_, err = sweep.RenderResultsMarkdown(f)
	t.render = end()
	return f, summary, t, err
}

func (c *campaignPass) run(r *runner, p *passResult) error {
	mt := startMeter()
	end := r.tr.span("record")
	f, sum, t, err := c.execute(r, c.store)
	end()
	mt.stop(p)
	if err != nil {
		return err
	}
	p.addLayer("sweep.section_s", t.sections)
	p.addLayer("results.export_s", t.export)
	p.addLayer("sweep.render_s", t.render)
	p.replications = len(f.Records)
	if fresh := sum.Done - sum.Skipped; fresh != len(f.Records) || sum.Skipped != 0 {
		p.fail("fresh store: %d simulated and %d restored, want %d simulated", fresh, sum.Skipped, len(f.Records))
	}
	reps, deadlocked, hops, cycles := summarize(f)
	if p.digest, err = digest(reps); err != nil {
		return err
	}
	base, err := config.AtScale(c.camp.Scale)
	if err != nil {
		return err
	}
	topo, err := base.BuildTopology()
	if err != nil {
		return err
	}
	p.routerCycles = float64(topo.NumRouters()) * cycles
	if p.repWalls, err = manifestWalls(c.dir); err != nil {
		return err
	}
	if len(p.repWalls) != p.replications {
		p.fail("manifest lists %d wall times for %d records", len(p.repWalls), p.replications)
	}

	if err := c.resume(r, p, len(f.Records)); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if c.committed != "" && r.pinnedSeed() && r.o.size == "full" {
		if err := compareCommitted(c.committed, f, p); err != nil {
			return err
		}
	}

	if p.layer == nil {
		return nil
	}
	p.addLayer("sim.deadlocked_replications", float64(deadlocked))
	var busy float64
	for _, w := range p.repWalls {
		busy += w
	}
	p.addLayer("sweep.worker_utilization", busy/(p.wall.Seconds()*float64(sim.WorkerBudget())))
	mb, err := dirMB(c.dir)
	if err != nil {
		return err
	}
	p.addLayer("results.dir_mb", mb)
	p.addLayer("campaign.compile_s", c.compileS)
	cfg := base
	cfg.Seed = r.o.seed
	if err := tablesSpan(r, cfg, p); err != nil {
		return err
	}
	endNew := r.tr.span("sim.New")
	_, err = sim.New(cfg)
	p.addLayer("sim.new_s", endNew())
	if err != nil {
		return err
	}
	return registryLayer(r.reg, p, hops)
}

// resume reopens the finished campaign's store and runs the campaign again:
// all recorded replications must be restored, none simulated, and the
// export must hold the same records.
func (c *campaignPass) resume(r *runner, p *passResult, recorded int) error {
	start := time.Now()
	defer func() { p.resume = time.Since(start) }()
	defer r.tr.span("resume")()
	endOpen := r.tr.span("results.Open")
	store, err := results.Open(c.dir)
	p.addLayer("results.open_s", endOpen())
	if err != nil {
		return err
	}
	f, sum, t, err := c.execute(r, store)
	if err != nil {
		return err
	}
	p.addLayer("results.restore_s", t.sections)
	p.addLayer("sweep.replications_restored", float64(sum.Skipped))
	if sum.Skipped != recorded || sum.Done != sum.Skipped {
		p.fail("resume restored %d of %d records and simulated %d", sum.Skipped, recorded, sum.Done-sum.Skipped)
	}
	reps, _, _, _ := summarize(f)
	d, err := digest(reps)
	if err != nil {
		return err
	}
	if d != p.digest {
		p.fail("resumed export differs from the recorded one")
	}
	return nil
}

// summarize extracts the digest inputs of an export, the number of
// deadlocked replications, the delivered hops and the simulated cycles.
func summarize(f *results.File) (reps []replication, deadlocked int, hops, cycles float64) {
	for _, rec := range f.Records {
		res := rec.Result
		reps = append(reps, replication{Section: rec.Section, Variant: rec.Variant, Load: rec.Load, Seed: rec.Seed, SimSeed: rec.SimSeed, Result: res})
		if res.Deadlock {
			deadlocked++
		}
		hops += float64(res.DeliveredPackets) * res.AvgHops
		cycles += float64(res.SimulatedCycles)
	}
	return reps, deadlocked, hops, cycles
}

// manifestWalls reads each replication's wall time, in seconds, from the
// results store's manifest.
func manifestWalls(dir string) ([]float64, error) {
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m struct {
		Entries []struct {
			WallMS float64 `json:"wall_ms"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	walls := make([]float64, len(m.Entries))
	for i, e := range m.Entries {
		walls[i] = e.WallMS / 1e3
	}
	return walls, nil
}

// compareCommitted checks the records against a recorded export, record by
// record; every record that is missing there or differs counts as failed.
func compareCommitted(path string, f *results.File, p *passResult) error {
	want, err := results.LoadFile(path)
	if err != nil {
		return fmt.Errorf("committed export: %w", err)
	}
	byKey := make(map[results.Key][]byte, len(want.Records))
	for _, rec := range want.Records {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		byKey[rec.Key()] = b
	}
	bad := 0
	for _, rec := range f.Records {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if string(byKey[rec.Key()]) != string(b) {
			bad++
		}
	}
	if bad > 0 {
		p.failed = max(p.failed, bad)
		p.problems = append(p.problems, fmt.Sprintf("%d of %d records differ from %s", bad, len(f.Records), path))
	}
	return nil
}

// dirMB is the total size of the regular files under dir, in MiB.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / (1 << 20), err
}
