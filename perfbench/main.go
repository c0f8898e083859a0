// Command perfbench is the repository's same-machine benchmark. It runs one
// named workload for a fixed time, checks that the simulated results are
// correct, and prints every metric with its unit; the last line of its
// output is one JSON object. See README.md in this directory.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"flexvc/internal/obs"
	"flexvc/internal/sim"
)

// metric is one reported metric: its name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run. Every workload defines all of them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"router_cycles_per_s", "1/s"},
	{"records_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"mallocs_k", "k"},
}

// perLayer are the metrics of single layers, printed by a traced run. A
// metric a workload does not reach reads 0.
var perLayer = []metric{
	{"topology.tables_s", "s"},
	{"sim.new_s", "s"},
	{"campaign.compile_s", "s"},
	{"sim.phase.events_s", "s"},
	{"sim.phase.inject_s", "s"},
	{"sim.phase.pb_update_s", "s"},
	{"sim.phase.step_s", "s"},
	{"sim.wheel_depth_hwm", "count"},
	{"sim.deadlocked_replications", "count"},
	{"router.grants", "count"},
	{"router.step_ns_per_grant", "ns"},
	{"router.step_ns_per_hop", "ns"},
	{"packet.store_slots", "count"},
	{"packet.reuse_ratio", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"sweep.worker_utilization", "ratio"},
	{"sweep.section_s", "s"},
	{"sweep.render_s", "s"},
	{"sweep.replications_restored", "count"},
	{"results.put_p50_ms", "ms"},
	{"results.put_p99_ms", "ms"},
	{"results.put_total_s", "s"},
	{"results.export_s", "s"},
	{"results.open_s", "s"},
	{"results.restore_s", "s"},
	{"results.dir_mb", "MiB"},
	{"resume_s", "s"},
	{"replication_wall_p50_s", "s"},
	{"replication_wall_tail_s", "s"},
	{"replication_wall_tail_pct", "%"},
	{"replication_samples", "count"},
	{"failed_frac", "ratio"},
	{"obs.tracing_overhead", "ratio"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	out      string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (the base seed of every replication)")
	fs.Float64Var(&o.seconds, "seconds", 35, "how long to measure, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs traced passes and prints the per-layer metrics")
	fs.StringVar(&o.size, "size", "full", "work per pass: full, or quick for the self-test")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for results stores and trace files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	o.trace = *traceFlag == 1
	if _, ok := sizes[o.size]; !ok {
		return o, fmt.Errorf("unknown -size %q (want full or quick)", o.size)
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("-seconds must not be negative")
	}
	if o.workload != "all" && lookup(o.workload) == nil {
		return o, fmt.Errorf("unknown -workload %q (want %s or all)", o.workload, strings.Join(names, ", "))
	}
	return o, nil
}

func lookup(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pins are the result digests recorded at one seed, per size and workload.
type pins struct {
	Seed    int64                        `json:"seed"`
	Digests map[string]map[string]string `json:"digests"`
}

//go:embed pins.json
var pinsJSON []byte

// conditions are what a measurement depends on besides the code.
type conditions struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"worker_budget"`
	Shards     int     `json:"shards,omitempty"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Size       string  `json:"size"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Passes     int     `json:"passes"`
	Samples    int     `json:"replications"`
}

func (c conditions) String() string {
	shards := "n/a"
	if c.Shards > 0 {
		shards = fmt.Sprint(c.Shards)
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d workers=%d shards=%s go=%s commit=%s passes=%d replications=%d",
		c.CPU, c.NumCPU, c.GOMAXPROCS, c.Workers, shards, c.Go, c.Commit, c.Passes, c.Samples)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could read it.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// runner carries one benchmark run's settings and the state of its current
// pass.
type runner struct {
	o    options
	size size
	pins pins
	work string
	tr   *tracer
	// reg is the obs registry of the current pass; nil when untraced.
	reg *obs.Registry
}

func (r *runner) pinnedSeed() bool { return r.o.seed == r.pins.Seed }

// outcome is the result of one workload run.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	cond              conditions
	digest            string
	pin               string // how the digest compares with the pinned one
	passWalls         []float64
	problems          []string
	tracePath         string
}

// runWorkload sets the workload up several times, then runs passes until
// the time is spent. In a traced run passes alternate between untraced and
// traced, so the tracing overhead is measured in the same run.
func runWorkload(o options, w *workload, pn pins) (*outcome, error) {
	r := &runner{o: o, size: sizes[o.size], pins: pn}
	if w.serial {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	runID := fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, time.Now().UnixNano())
	r.tr = newTracer(runID)
	r.work = filepath.Join(o.out, "work", runID)
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.work)

	setups, err := sampleSetup(r, w, r.size.setups, r.size.setupTime)
	if err != nil {
		return nil, err
	}

	var plain, traced []*passResult
	out := &outcome{metrics: map[string]float64{}}
	start := time.Now()
	for i := 0; ; i++ {
		tracing := o.trace && i%2 == 1
		if i >= 1 && (!o.trace || len(traced) > 0) {
			done := time.Since(start).Seconds()
			per := done / float64(i)
			if done+per/2 >= o.seconds {
				break
			}
		}
		// Start every pass from a collected heap with its free memory
		// returned to the OS, so that neither the garbage of earlier passes
		// nor their pass count shows in the next pass or in peak_rss_mb.
		debug.FreeOSMemory()
		r.tr.on, r.reg = tracing, nil
		res := &passResult{}
		if tracing {
			r.reg = obs.NewRegistry()
			res.layer = map[string]float64{}
		}
		endPass := r.tr.span("pass")
		t0 := time.Now()
		p, err := w.setup(r)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		res.setup = time.Since(t0)
		err = p.run(r, res)
		p.release()
		endPass()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if tracing {
			traced = append(traced, res)
		} else {
			setups = append(setups, res.setup.Seconds())
			plain = append(plain, res)
		}
		if !o.trace {
			more, err := sampleSetup(r, w, 1, r.size.setupRound)
			if err != nil {
				return nil, err
			}
			setups = append(setups, more...)
		}
	}
	all := append(append([]*passResult(nil), plain...), traced...)
	out.digest = all[0].digest
	shards := 0
	for _, p := range all {
		out.passWalls = append(out.passWalls, p.wall.Seconds())
		out.attempted += p.replications
		if p.digest != out.digest {
			p.fail("digest %s differs from the run's first pass %s", p.digest, out.digest)
		}
		out.failed += min(p.failed, p.replications)
		out.problems = append(out.problems, p.problems...)
		shards = max(shards, p.shards)
	}
	out.pin = fmt.Sprintf("not pinned at seed %d", o.seed)
	if r.pinnedSeed() {
		out.pin = "matches the pinned digest"
		switch want := pn.Digests[o.size][w.name]; {
		case want == "":
			out.pin = "no digest pinned"
			out.problems = append(out.problems, fmt.Sprintf("no digest pinned for %s at size %s", w.name, o.size))
			out.failed = out.attempted
		case want != out.digest:
			out.pin = "pinned digest is " + want
			out.problems = append(out.problems, fmt.Sprintf("digest %s differs from the pinned %s", out.digest, want))
			out.failed = out.attempted
		}
	}
	out.correct = out.failed == 0 && len(out.problems) == 0
	out.cond = conditions{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: sim.WorkerBudget(), Shards: shards, Go: runtime.Version(), Commit: commit(),
		Workload: w.name, Seed: o.seed, Size: o.size, Seconds: o.seconds, Trace: o.trace,
		Passes: len(all), Samples: out.attempted,
	}

	if !o.trace {
		endToEndMetrics(out.metrics, setups, plain)
		return out, nil
	}
	layerMetrics(out.metrics, plain, traced)
	out.metrics["failed_frac"] = float64(out.failed) / float64(out.attempted)
	path, err := r.tr.write(filepath.Join(o.out, "trace"), out.cond)
	if err != nil {
		return nil, err
	}
	out.tracePath = path
	return out, nil
}

// sampleSetup sets the workload up and releases it at least n times and for
// at least d, but at most maxSetups times, and returns each set-up's time.
func sampleSetup(r *runner, w *workload, n int, d time.Duration) ([]float64, error) {
	var setups []float64
	for t0 := time.Now(); len(setups) < maxSetups && (len(setups) < n || time.Since(t0) < d); {
		start := time.Now()
		p, err := w.setup(r)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		p.release()
		// Collect each sample's garbage before the next, so that the
		// set-up loop neither slows later samples nor sets peak_rss_mb.
		runtime.GC()
	}
	return setups, nil
}

func endToEndMetrics(m map[string]float64, setups []float64, passes []*passResult) {
	var walls, cpus []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	m["setup_s"] = median(setups)
	m["wall_s"] = median(walls)
	// Every pass does the same work (their digests are checked equal), so
	// the rates are the first pass's work per second of the median pass.
	m["router_cycles_per_s"] = passes[0].routerCycles / m["wall_s"]
	m["records_per_s"] = float64(passes[0].replications) / m["wall_s"]
	m["cpu_s"] = median(cpus)
	m["peak_rss_mb"] = peakRSSMB()
	// Allocation is taken from the first pass alone: later passes of a
	// campaign reuse the simulator's pooled packet stores, so their bytes
	// depend on how many passes ran before them.
	m["alloc_mb"] = float64(passes[0].allocBytes) / (1 << 20)
	m["mallocs_k"] = float64(passes[0].mallocs) / 1e3
}

// layerMetrics reports the median of each per-layer value over the traced
// passes, and the tracing overhead against the untraced passes. The resume
// time and the replication wall-time distribution come from the untraced
// passes, which the registry and spans do not slow down.
func layerMetrics(m map[string]float64, plain, traced []*passResult) {
	values := map[string][]float64{}
	var repWalls, resumes, plainWalls, tracedWalls []float64
	for _, p := range traced {
		for k, v := range p.layer {
			values[k] = append(values[k], v)
		}
		tracedWalls = append(tracedWalls, p.wall.Seconds())
	}
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
		repWalls = append(repWalls, p.repWalls...)
		if p.resume > 0 {
			resumes = append(resumes, p.resume.Seconds())
		}
	}
	for _, d := range perLayer {
		m[d.name] = median(values[d.name])
	}
	m["resume_s"] = median(resumes)
	m["replication_wall_p50_s"] = median(repWalls)
	if v, pct, ok := tail(repWalls); ok {
		m["replication_wall_tail_s"], m["replication_wall_tail_pct"] = v, pct
	}
	m["replication_samples"] = float64(len(repWalls))
	m["obs.tracing_overhead"] = median(tracedWalls)/median(plainWalls) - 1
}

// report prints the human-readable lines and then the JSON result line.
func report(w io.Writer, o options, out *outcome) error {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d size=%s seconds=%g trace=%v\n", out.cond.Workload, o.seed, o.size, o.seconds, o.trace)
	fmt.Fprintf(w, "conditions: %s\n", out.cond)
	fmt.Fprintf(w, "digest: %s (%s)\n", out.digest, out.pin)
	fmt.Fprintf(w, "pass wall times (untraced first): %.4g s\n", out.passWalls)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := out.metrics[d.name]
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	if o.trace {
		fmt.Fprintf(w, "spans: %s\n", out.tracePath)
	}
	fmt.Fprintf(w, "failed: %d of %d replications (failed_frac %.4g)\n", out.failed, out.attempted, float64(out.failed)/float64(out.attempted))
	for _, p := range out.problems {
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	var pn pins
	if err := json.Unmarshal(pinsJSON, &pn); err != nil {
		fmt.Fprintln(stderr, "perfbench: pins.json:", err)
		return 1
	}
	return runWith(o, pn, stdout, stderr)
}

// runWith runs the selected workloads, checks them against the pinned
// digests pn, reports them and returns the exit status.
func runWith(o options, pn pins, stdout, stderr io.Writer) int {
	sim.SetWorkerBudget(runtime.NumCPU())
	var ws []*workload
	if o.workload == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		ws = append(ws, lookup(o.workload))
	}
	code := 0
	for _, w := range ws {
		out, err := runWorkload(o, w, pn)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := report(stdout, o, out); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if !out.correct {
			code = 1
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
