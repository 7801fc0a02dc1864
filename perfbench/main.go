// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed number of seconds, checks that the
// program's outputs are correct, and prints every metric by name with
// its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// instrumentation off. With -trace 1 a separate run reports the
// per-layer metrics: the layer ledger built from spans, the obs
// counters, and replays of layers that are only reached from inside the
// program. See README.md for the workloads and every metric's
// definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one printed value. Values are printed with all their digits.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric the benchmark prints, with its
// unit. BENCHMARK.json declares the same names and units (checked by
// TestMetricTablesMatchBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"cold_tail_ms", "ms"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"ledger.cycle_ms", "ms"},
	{"unattributed_frac", "frac"},
	{"obs.trace_overhead_frac", "frac"},
	{"experiment.self_ms", "ms"},
	{"protocol.update_ns", "ns"},
	{"fluid.grid_steps", "count"},
	{"fluid.step_ms", "ms"},
	{"fluid.kernel_ms", "ms"},
	{"fluid.grid_steps_per_s", "1/s"},
	{"fluid.batched_frac", "frac"},
	{"nettopo.steps", "count"},
	{"nettopo.step_ms", "ms"},
	{"packetsim.runs", "count"},
	{"packetsim.packets_delivered", "count"},
	{"packetsim.run_ms", "ms"},
	{"packetsim.pkts_per_s", "1/s"},
	{"engine.runs", "count"},
	{"engine.sweep_self_ms", "ms"},
	{"engine.worker_busy_frac", "frac"},
	{"metrics.self_ms", "ms"},
	{"metrics.observe_ms", "ms"},
	{"metrics.topo_observe_ms", "ms"},
	{"metrics.session.hits", "count"},
	{"metrics.session.disk_hits", "count"},
	{"metrics.session.misses", "count"},
	{"metrics.session.hit_frac", "frac"},
	{"metrics.steps_simulated", "count"},
	{"metrics.steps_saved", "count"},
	{"runstore.self_ms", "ms"},
	{"runstore.puts", "count"},
	{"runstore.hits", "count"},
	{"runstore.misses", "count"},
	{"runstore.put_ms", "ms"},
	{"runstore.get_ms", "ms"},
	{"runstore.put_bytes", "bytes"},
	{"runstore.flock_wait_ms", "ms"},
	{"runstore.put_ms.disk", "ms"},
	{"runstore.get_ms.disk", "ms"},
	{"pareto.self_ms", "ms"},
	{"pareto.cells_evaluated", "count"},
	{"pareto.cells_simulated", "count"},
	{"pareto.cells_pruned", "count"},
	{"pareto.explore_self_ms", "ms"},
	{"jobd.self_ms", "ms"},
	{"jobd.ttfb_ms", "ms"},
	{"jobd.shard_rtt_ms", "ms"},
	{"jobd.ndjson_bytes", "bytes"},
	{"jobd.cells.cached", "count"},
	{"jobd.cells.simulated", "count"},
	{"jobd.cells.retried", "count"},
	{"jobd.jobs.shed", "count"},
}

type metricDef struct{ Name, Unit string }

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*result, error){
	"fluid-characterize": runFluid,
	"packet-hierarchy":   runPacket,
	"axiomd-jobs":        runAxiomd,
}

// env is one run's configuration and scratch space.
type env struct {
	root    string  // repository checkout the program was built from
	bin     string  // directory holding the built binaries
	tmp     string  // per-run scratch directory, removed at exit
	seed    uint64  // workload seed
	seconds float64 // measuring time
	trace   bool    // per-layer run instead of end-to-end
	workers int     // sweep workers, daemon shards and client connections
	notes   []string
}

// note records a human-readable line printed before the JSON result.
func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: fluid-characterize, packet-hierarchy or axiomd-jobs")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "measuring time of the run")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
		root     = flag.String("root", ".", "repository checkout the program was built from")
		bin      = flag.String("bin", ".bench_build", "directory holding the built perfbench and axiomd binaries")
		setup    = flag.String("setup-child", "", "internal: perform one in-process set-up against this store directory and exit")
	)
	flag.Parse()
	if *setup != "" {
		if err := setupChild(*root, *setup); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench setup:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	e, err := newEnv(*root, *bin, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(e)
	e.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, e, res)
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func newEnv(root, bin string, seed uint64, seconds float64, trace bool) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	bin, err = filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	tmpBase := filepath.Join(bin, "tmp")
	if err := os.MkdirAll(tmpBase, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpBase, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, tmp: tmp, seed: seed, seconds: seconds, trace: trace, workers: runtime.NumCPU()}, nil
}

// cleanup removes the run's scratch directory and waits for the file
// system to finish the deletion, so it does not spill into the next run.
func (e *env) cleanup() {
	os.RemoveAll(e.tmp)
	syscall.Sync()
}

// printResult writes the notes, the machine shape and every metric as
// text, then the JSON result as the last line.
func printResult(w *os.File, e *env, res *result) {
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d go=%s store_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(e.bin))
	for _, n := range e.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-30s %v %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

// fill copies vals into a result's metric map, attaching units from the
// table; a name missing from vals is an error in the benchmark itself.
func fill(res *result, table []metricDef, vals map[string]float64) error {
	res.Metrics = make(map[string]metric, len(table))
	var missing []string
	for _, d := range table {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

// fsType names the filesystem holding dir, for the machine-shape line.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x9123683E:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}

// Peak resident memory is measured per cycle or round: resetPeakRSS
// starts a new interval for a process (Linux clear_refs), and peakRSSMB
// reads the process's peak resident set size since then, so a run can
// report the median peak over its cycles instead of one high-water mark
// that a single late garbage collection sets.
func resetPeakRSS(pids ...int) {
	for _, pid := range pids {
		// Best effort: without the reset the peak covers a longer interval.
		os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
	}
}

// peakRSSMB sums the peak resident set sizes of pids, in MiB.
func peakRSSMB(pids ...int) float64 {
	var total float64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
				total += kb / 1024
			}
		}
	}
	return total
}
