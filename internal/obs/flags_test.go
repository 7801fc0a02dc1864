package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestFlagsDisengagedIsNoOp(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("metrics enabled with no obs flag engaged")
	}
	if f.Record() != nil {
		t.Fatal("record created with no obs flag engaged")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagsFullLifecycle(t *testing.T) {
	Reset()
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	trc := filepath.Join(dir, "trace.out")
	rec := filepath.Join(dir, "runrecord.json")

	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	seed := fs.Uint64("seed", 7, "tool's own flag, captured as a param")
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{
		"-cpuprofile", cpu, "-memprofile", mem, "-exectrace", trc,
		"-runrecord", rec, "-progress",
	}); err != nil {
		t.Fatal(err)
	}
	_ = seed

	stop, err := f.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("metrics not enabled")
	}
	if SweepProgressFunc() == nil {
		t.Fatal("-progress did not install the sweep sink")
	}
	GetCounter("flags.work").Add(2)
	RecordScore("mean", 1.5)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	if Enabled() || SweepProgressFunc() != nil || ActiveRecord() != nil {
		t.Fatal("stop did not tear down global state")
	}

	for _, path := range []string{cpu, mem, trc} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
	raw, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	var r RunRecord
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.Tool != "tool" || r.DurationSeconds <= 0 {
		t.Fatalf("record = %+v", &r)
	}
	// Both the tool's own flags and the obs flags land in Params.
	if r.Params["seed"] != "7" || r.Params["cpuprofile"] != cpu {
		t.Fatalf("params = %v", r.Params)
	}
	if r.Scores["mean"] != 1.5 {
		t.Fatalf("scores = %v", r.Scores)
	}
	if r.Metrics == nil || r.Metrics.Counters["flags.work"] != 2 {
		t.Fatalf("metrics = %+v", r.Metrics)
	}
}

// -progress alone engages the layer and defaults the manifest to
// runrecord.json in the working directory.
func TestFlagsDefaultRunRecordPath(t *testing.T) {
	Reset()
	dir := t.TempDir()
	orig, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(orig)

	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-progress"}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runrecord.json")); err != nil {
		t.Fatalf("default runrecord.json not written: %v", err)
	}
}

// TestFlagsObsListenAndTimeline exercises the two new exposition flags
// end to end: Start binds the HTTP endpoint and engages the timeline
// collector; stop closes the listener and writes the timeline file.
func TestFlagsObsListenAndTimeline(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "tl.json")
	rr := filepath.Join(dir, "rr.json")
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-obs-listen", "127.0.0.1:0", "-exectimeline", tl, "-runrecord", rr}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("obs not enabled by -obs-listen")
	}
	if !tlEnabled.Load() {
		t.Fatal("timeline not engaged by -exectimeline")
	}
	if f.server == nil || f.server.Addr() == "" {
		t.Fatal("no HTTP server bound")
	}
	StartLeafSpan("test.flags.span").End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if Enabled() || tlEnabled.Load() {
		t.Fatal("stop left obs or timeline enabled")
	}
	raw, err := os.ReadFile(tl)
	if err != nil {
		t.Fatalf("timeline not written: %v", err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("timeline not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}
	if _, err := os.Stat(rr); err != nil {
		t.Fatalf("runrecord not written: %v", err)
	}
}
