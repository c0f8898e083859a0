package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type printed struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runQuick runs one workload at the self-test size for the shortest time
// (one pass, two when traced) against the pinned digests, after corrupt has
// changed them when it is set. It returns the exit status and the parsed
// last line of the output.
func runQuick(t *testing.T, workload, trace string, corrupt func(*pins)) (int, printed) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o, err := parseOptions([]string{"--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace,
		"--size", "quick", "--out", t.TempDir()}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	var pn pins
	if err := json.Unmarshal(pinsJSON, &pn); err != nil {
		t.Fatal(err)
	}
	if corrupt != nil {
		corrupt(&pn)
	}
	code := runWith(o, pn, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("%s trace=%s: last line is not a result (%v)\nstdout:\n%s\nstderr:\n%s", workload, trace, err, stdout.String(), stderr.String())
	}
	return code, p
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(want), len(got))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, p := runQuick(t, w.name, trace, nil)
			if code != 0 || !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, correct %v, %d of %d failed", w.name, trace, code, p.Correct, p.Failed, p.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(p.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, want %d", w.name, trace, len(p.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := p.Metrics[m.name]
				if !ok || got.Value == nil || got.Unit != m.unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v, want a value in %s", w.name, trace, m.name, got, m.unit)
				}
			}
		}
	}
}

func TestCorruptPinnedDigestFails(t *testing.T) {
	code, p := runQuick(t, "medium-un-min", "1", func(pn *pins) {
		d := []byte(pn.Digests["quick"]["medium-un-min"])
		if len(d) == 0 {
			t.Fatal("no quick digest pinned for medium-un-min")
		}
		d[0] ^= 1
		pn.Digests["quick"]["medium-un-min"] = string(d)
	})
	if code == 0 || p.Correct || p.Failed == 0 {
		t.Errorf("corrupted pin: exit %d, correct %v, %d failed; want a failing run", code, p.Correct, p.Failed)
	}
	if ff := p.Metrics["failed_frac"].Value; ff == nil || *ff <= 0 {
		t.Errorf("corrupted pin: failed_frac %v, want > 0", ff)
	}
}
