package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSmokeEmitsEveryMetric runs a one-second window of each mode and
// checks that the result line carries exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet and runs jobs")
	}
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	for trace, want := range map[int][]metricDecl{0: bj.EndToEnd, 1: bj.PerLayer} {
		var out bytes.Buffer
		res, err := bench(Options{Workload: "track", Seed: 1, Seconds: 1, Trace: trace, Root: t.TempDir(), Out: &out})
		if err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %d: correct=%v failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, out.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("trace %d: metric %s missing", trace, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("trace %d: metric %s has unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

// TestWrongDigestCountsAsError checks the oracle: a job whose reference
// digest is deliberately wrong is a failed op and shows in error_rate.
func TestWrongDigestCountsAsError(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet and runs jobs")
	}
	wl, err := findWorkload("track")
	if err != nil {
		t.Fatal(err)
	}
	list := wl.jobList()[:2]
	for i := range list {
		list[i].Steps = 50
	}
	refs, err := references(list, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	refs[1].Digest = "not-the-digest"
	fl, err := startFleet(t.TempDir(), defaultTileCache)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	spans := newSpans()
	cl := newClient(spans)
	defer cl.Close()
	r := &Run{wl: wl, fleet: fl, cl: cl, spans: spans, list: list, refs: refs, out: &bytes.Buffer{}}
	for i := range list {
		if _, err := r.runJob(i, false); err != nil {
			t.Fatal(err)
		}
	}
	r.verifyJobs(refs)
	if r.failed != 1 || r.ops != 2 {
		t.Fatalf("failed %d of %d ops, want 1 of 2 (failures: %v)", r.failed, r.ops, r.failures)
	}
	if got := r.errorRate(); got != 0.5 {
		t.Fatalf("error_rate %v, want 0.5", got)
	}
}
