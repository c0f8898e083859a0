package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"flexvc/internal/obs"
)

// span is one timed call the benchmark made into a layer of the simulator.
// Times are seconds since the run started; Parent is 0 for a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the spans of one benchmark run in memory. It is used from the
// benchmark's own goroutine only. While off, span is a no-op, so untraced
// passes record nothing.
type tracer struct {
	runID string
	t0    time.Time
	on    bool
	spans []span
	open  []int // stack of open span indexes
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// span opens a span named name under the innermost open span and returns the
// function that closes it and reports its duration in seconds (0 while off).
func (t *tracer) span(name string) func() float64 {
	if !t.on {
		return func() float64 { return 0 }
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, idx)
	return func() float64 {
		s := &t.spans[idx]
		s.End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
		return s.End - s.Start
	}
}

// spanTotal is the summed duration and self time of every span of one name.
type spanTotal struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// totals derives, per span name, the summed duration and the self time: a
// span's duration minus the time its child spans cover. Children of one
// span never overlap, because the benchmark makes its calls one at a time.
func (t *tracer) totals() map[string]spanTotal {
	child := make(map[int]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanTotal{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - child[s.ID]
		out[s.Name] = st
	}
	return out
}

// write stores the spans, their per-name totals and the run's conditions as
// one JSON file and returns its path.
func (t *tracer) write(dir string, cond conditions) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(struct {
		RunID      string               `json:"run_id"`
		Conditions conditions           `json:"conditions"`
		Totals     map[string]spanTotal `json:"totals"`
		Spans      []span               `json:"spans"`
	}{t.runID, cond, t.totals(), t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.runID+".trace.json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples above it, with that percentile; ok is false below 11 samples.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// histQuantile reads the q-quantile of an obs histogram snapshot as the
// upper bound of the bucket holding that rank.
func histQuantile(h obs.HistogramSnapshot, q float64) (float64, error) {
	if h.Count == 0 {
		return 0, nil
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range h.Buckets {
		seen += b[1]
		if seen >= rank {
			return float64(bucketUpper(int(b[0]), h.SubBits)), nil
		}
	}
	return 0, fmt.Errorf("histogram buckets hold %d samples, count says %d", seen, h.Count)
}

// bucketUpper is the inclusive upper bound of bucket i in the log-linear
// layout obs.HistogramSnapshot documents: values below 2^subBits are exact,
// and each octave above splits into 2^(subBits-1) linear buckets.
func bucketUpper(i, subBits int) int64 {
	sub := 1 << subBits
	half := sub / 2
	if i < sub {
		return int64(i)
	}
	shift := (i-sub)/half + 1
	s := (i-sub)%half + half
	return int64((uint64(s)+1)<<uint(shift) - 1)
}
