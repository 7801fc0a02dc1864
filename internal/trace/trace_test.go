package trace

import (
	"math"
	"strings"
	"testing"
)

func buildTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New(2, 100, 0.042, 4)
	tr.Append([]float64{10, 20}, 0.042, 0)
	tr.Append([]float64{11, 21}, 0.042, 0)
	tr.Append([]float64{12, 22}, 0.050, 0.1)
	tr.Append([]float64{6, 11}, 0.042, 0)
	return tr
}

func TestAppendAndAccessors(t *testing.T) {
	tr := buildTrace(t)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Senders() != 2 {
		t.Fatalf("Senders = %d", tr.Senders())
	}
	if tr.Capacity() != 100 {
		t.Fatalf("Capacity = %v", tr.Capacity())
	}
	if tr.BaseRTT() != 0.042 {
		t.Fatalf("BaseRTT = %v", tr.BaseRTT())
	}
	if got := tr.Window(0); got[2] != 12 {
		t.Fatalf("Window(0)[2] = %v", got[2])
	}
	if got := tr.Total(); got[0] != 30 || got[2] != 34 {
		t.Fatalf("Total = %v", got)
	}
	if got := tr.Loss(); got[2] != 0.1 {
		t.Fatalf("Loss = %v", got)
	}
	if got := tr.RTT(); got[2] != 0.050 {
		t.Fatalf("RTT = %v", got)
	}
}

func TestAppendPanicsOnWrongWidth(t *testing.T) {
	tr := New(2, 100, 0.042, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong width did not panic")
		}
	}()
	tr.Append([]float64{1}, 0.042, 0)
}

func TestGoodput(t *testing.T) {
	tr := buildTrace(t)
	g := tr.Goodput(0)
	// step 0: 10 * 1 / 0.042
	want := 10.0 / 0.042
	if math.Abs(g[0]-want) > 1e-9 {
		t.Fatalf("Goodput[0] = %v, want %v", g[0], want)
	}
	// step 2: 12 * 0.9 / 0.050
	want = 12 * 0.9 / 0.050
	if math.Abs(g[2]-want) > 1e-9 {
		t.Fatalf("Goodput[2] = %v, want %v", g[2], want)
	}
}

func TestGoodputZeroRTT(t *testing.T) {
	tr := New(1, 100, 0, 1)
	tr.Append([]float64{10}, 0, 0)
	if g := tr.Goodput(0); g[0] != 0 {
		t.Fatalf("goodput with zero RTT = %v, want 0", g[0])
	}
}

func TestAvgWindowTail(t *testing.T) {
	tr := buildTrace(t)
	// Tail(0.5) of sender 0 = steps 2,3 = (12+6)/2 = 9.
	if got := tr.AvgWindow(0, 0.5); math.Abs(got-9) > 1e-12 {
		t.Fatalf("AvgWindow tail = %v, want 9", got)
	}
	// Full series.
	if got := tr.AvgWindow(0, 0); math.Abs(got-9.75) > 1e-12 {
		t.Fatalf("AvgWindow full = %v, want 9.75", got)
	}
}

func TestUtilization(t *testing.T) {
	tr := buildTrace(t)
	u := tr.Utilization()
	if math.Abs(u[0]-0.30) > 1e-12 {
		t.Fatalf("Utilization[0] = %v, want 0.30", u[0])
	}
}

func TestUtilizationInfiniteCapacity(t *testing.T) {
	tr := New(1, math.Inf(1), 0.042, 1)
	tr.Append([]float64{100}, 0.042, 0)
	if u := tr.Utilization(); u[0] != 0 {
		t.Fatalf("infinite-capacity utilization = %v, want 0", u[0])
	}
}

func TestWriteTSV(t *testing.T) {
	tr := buildTrace(t)
	var sb strings.Builder
	if err := tr.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("TSV has %d lines, want 5 (header + 4)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "step\tw0\tw1\ttotal\trtt\tloss") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0\t10.0000\t20.0000\t30.0000") {
		t.Fatalf("row 0 = %q", lines[1])
	}
}

func TestSummary(t *testing.T) {
	tr := buildTrace(t)
	s := tr.Summary(0)
	if !strings.Contains(s, "steps=4") {
		t.Fatalf("Summary = %q", s)
	}
	empty := New(1, 10, 0.042, 0)
	if got := empty.Summary(0); got != "empty trace" {
		t.Fatalf("empty Summary = %q", got)
	}
}

// TestAppendColumnsMatchesAppend: recording flow-major columns leaves the
// same trace as appending the steps one at a time.
func TestAppendColumnsMatchesAppend(t *testing.T) {
	want := buildTrace(t)
	got := New(2, 100, 0.042, 0)
	// Steps 0–2 as one strip, step 3 as another.
	got.AppendColumns(3, []float64{10, 11, 12, 20, 21, 22}, []float64{30, 32, 34}, []float64{0.042, 0.042, 0.050}, []float64{0, 0, 0.1})
	got.AppendColumns(1, []float64{6, 11}, []float64{17}, []float64{0.042}, []float64{0})
	var a, b strings.Builder
	if err := want.WriteTSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("AppendColumns trace:\n%s\nwant:\n%s", b.String(), a.String())
	}
}
