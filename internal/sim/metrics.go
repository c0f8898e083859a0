package sim

import (
	"time"

	"flexvc/internal/obs"
)

// Metric names exported by the sim layer (the full inventory is documented in
// DESIGN.md "Observability"). Names are Prometheus families; labels are baked
// into the name at registration time.
const (
	// MetricPhaseWall is the cycle loop's wall-time breakdown, labeled
	// phase="events"|"inject"|"pb_update"|"step".
	MetricPhaseWall = "flexvc_sim_phase_wall_ns_total"
	// MetricCycles counts simulated cycles.
	MetricCycles = "flexvc_sim_cycles_total"
	// MetricReplications counts completed replications.
	MetricReplications = "flexvc_sim_replications_total"
	// MetricReplicationWall is the per-replication wall-time histogram.
	MetricReplicationWall = "flexvc_sim_replication_wall_ns"
	// MetricWheelDepthHWM is the event-wheel depth high-water mark.
	MetricWheelDepthHWM = "flexvc_sim_event_wheel_depth_hwm"
)

// phase indexes the cycle loop's phases in simMetrics.phase.
type phase int

const (
	phaseEvents phase = iota
	phaseInject
	phasePB
	phaseStep
	numPhases
)

// phaseLabels are the `phase` label values of MetricPhaseWall, by phase.
var phaseLabels = [numPhases]string{"events", "inject", "pb_update", "step"}

// simMetrics holds the pre-resolved metric handles the cycle loop updates, so
// the instrumented path never formats a name or takes the registry lock. It
// is nil when the configuration carries no registry, and every method is
// nil-receiver-safe: with metrics off, Step's timing calls reduce to pointer
// comparisons and never read the clock.
type simMetrics struct {
	phase    [numPhases]*obs.Counter
	cycles   *obs.Counter
	wheelHWM *obs.Gauge
}

// newSimMetrics resolves the cycle-loop metric handles against reg, returning
// nil (instrumentation fully disabled) when reg is nil. Counters are shared
// by name, so concurrent replications reporting into one registry aggregate
// naturally.
func newSimMetrics(reg *obs.Registry) *simMetrics {
	if reg == nil {
		return nil
	}
	m := &simMetrics{
		cycles:   reg.Counter(MetricCycles),
		wheelHWM: reg.Gauge(MetricWheelDepthHWM),
	}
	for p, label := range phaseLabels {
		m.phase[p] = reg.Counter(MetricPhaseWall + `{phase="` + label + `"}`)
	}
	return m
}

// clock starts a phase: the current time, or the zero time when metrics are
// off.
func (m *simMetrics) clock() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// lap charges the wall time since start to phase p and returns the end of
// the phase, which starts the next one.
func (m *simMetrics) lap(p phase, start time.Time) time.Time {
	if m == nil {
		return start
	}
	now := time.Now()
	m.phase[p].Add(now.Sub(start).Nanoseconds())
	return now
}

// endCycle counts one cycle and samples the wheel depth high-water mark.
func (m *simMetrics) endCycle(wheelDepth int64) {
	if m == nil {
		return
	}
	m.cycles.Inc()
	m.wheelHWM.SetMax(wheelDepth)
}
