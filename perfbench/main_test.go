package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		if a, b := genFluid(seed), genFluid(seed); a != b {
			t.Errorf("genFluid(%d) differs between calls: %+v vs %+v", seed, a, b)
		}
		if a, b := genPacket(seed), genPacket(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("genPacket(%d) differs between calls: %+v vs %+v", seed, a, b)
		}
		if a, b := genJobs(seed), genJobs(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("genJobs(%d) differs between calls: %+v vs %+v", seed, a, b)
		}
	}
	if reflect.DeepEqual(genPacket(1), genPacket(2)) || reflect.DeepEqual(genJobs(1), genJobs(2)) {
		t.Error("seeds 1 and 2 generate the same inputs")
	}
}

func TestColdJobsNeverRepeatCells(t *testing.T) {
	in := genJobs(3)
	seen := map[float64]bool{}
	for k := 0; k < 1000; k++ {
		for _, m := range in.coldMbps(k) {
			if seen[m] {
				t.Fatalf("bandwidth %v repeats at cold job %d", m, k)
			}
			seen[m] = true
		}
	}
	if len(in.RTTms) != jobRTTs || len(in.BufferMSS) != jobBuffers {
		t.Fatalf("job grid axes %v × %v, want %d × %d", in.RTTms, in.BufferMSS, jobRTTs, jobBuffers)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metric names and
// units, and the workload names, identical to BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, printed %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, printed %v", b.PerLayer, perLayer)
	}
	var names, declared []string
	for n := range workloads {
		names = append(names, n)
	}
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(names)
	sort.Strings(declared)
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads in BENCHMARK.json %v, implemented %v", declared, names)
	}
}

func TestLedgerSplitsConcurrentTime(t *testing.T) {
	// Main track 1 runs a pass [0,100] and a sweep [10,90] waiting on
	// two workers (tracks 2 and 3); a store put nests in worker 2.
	spans := []tspan{
		{passSpan, 1, 0, 100},
		{"engine.sweep", 1, 10, 90},
		{"engine.batch.step", 2, 10, 50},
		{"runstore.put", 2, 30, 40},
		{"engine.run.topo", 3, 10, 90},
	}
	l := newLedger()
	l.add(spans, 1, 0, 100)
	want := map[string]float64{
		"fluid":    10 + 5,  // [10,30] and [40,50] shared with track 3
		"runstore": 5,       // [30,40] shared
		"nettopo":  20 + 40, // [10,50] shared, [50,90] alone
		"engine":   0,       // the sweep only waits
		"":         10 + 10, // outside the sweep
	}
	for layer, w := range want {
		got := l.layer[layer]
		if layer == "" {
			got = l.unattributed
		}
		if got != w {
			t.Errorf("layer %q: %v µs, want %v", layer, got, w)
		}
	}
	var sum float64
	for _, v := range l.layer {
		sum += v
	}
	if sum+l.unattributed != l.wall || l.wall != 100 {
		t.Errorf("ledger sums to %v of wall %v", sum+l.unattributed, l.wall)
	}
}

// TestSmokeWorkloads runs every workload briefly, untraced and traced,
// and requires the correctness gate to pass and every metric to print.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the program and runs every workload")
	}
	bin := t.TempDir()
	for _, target := range [][2]string{{"perfbench", "."}, {"axiomd", "repro/cmd/axiomd"}} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, target[0]), target[1])
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", target[1], err, out)
		}
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			e, err := newEnv("..", bin, 1, 0.1, trace)
			if err != nil {
				t.Fatal(err)
			}
			res, err := workloads[name](e)
			os.RemoveAll(e.tmp)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v", name, trace, res.Correct, res.Attempted, res.Failed, e.notes)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(table))
			}
			if !trace {
				for k, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}
