package axcheck

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/protocol"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/check_golden.json")

// goldenOpt keeps the pinned searches short: every claim and protocol
// still visits the structured corners plus a few random starts.
var goldenOpt = Options{Steps: 600, RandomTrials: 4, Seed: 3, Slack: DefaultSlack}

// goldenAlpha is the claimed score per claim, chosen so that some
// searches survive and some die.
var goldenAlpha = map[Claim]float64{
	Efficient:      0.6,
	LossAvoiding:   0.02,
	Fair:           0.7,
	Convergent:     0.6,
	FriendlyToReno: 0.5,
}

var goldenClaims = []Claim{Efficient, LossAvoiding, Fair, Convergent, FriendlyToReno}

func goldenProtocols() []protocol.Protocol {
	return []protocol.Protocol{protocol.Reno(), protocol.Scalable(), protocol.CubicLinux(), protocol.NewAIMD(2, 0.7)}
}

// goldenCheck is one Check outcome with every float as its IEEE-754 bit
// pattern in hex, each vector space-separated.
type goldenCheck struct {
	Name            string `json:"name"`
	Worst           string `json:"worst"`
	WorstInit       string `json:"worst_init"`
	Violated        bool   `json:"violated"`
	WitnessMeasured string `json:"witness_measured"`
	WitnessInit     string `json:"witness_init"`
	WitnessLink     string `json:"witness_link,omitempty"`
	WorstLink       string `json:"worst_link,omitempty"`
	Trials          int    `json:"trials"`
}

func hexBits(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return strings.Join(parts, " ")
}

func hexLink(lp LinkPoint) string {
	return hexBits(lp.C, lp.Tau) + " n=" + strconv.Itoa(lp.N)
}

func measureGolden(t *testing.T) []goldenCheck {
	t.Helper()
	var out []goldenCheck
	for _, claim := range goldenClaims {
		for _, p := range goldenProtocols() {
			for _, n := range []int{2, 3} {
				res, err := Check(cap100(), p, claim, goldenAlpha[claim], n, goldenOpt)
				if err != nil {
					t.Fatalf("%s %s n=%d: %v", claim, p.Name(), n, err)
				}
				out = append(out, goldenCheck{
					Name:            fmt.Sprintf("check/%s/%s/n=%d", claim, p.Name(), n),
					Worst:           hexBits(res.Worst),
					WorstInit:       hexBits(res.WorstInit...),
					Violated:        res.Violated,
					WitnessMeasured: hexBits(res.Witness.Measured),
					WitnessInit:     hexBits(res.Witness.Init...),
					Trials:          res.Trials,
				})
			}
		}
	}
	for _, claim := range goldenClaims {
		res, err := CheckWorstCase(protocol.Reno(), claim, goldenAlpha[claim], DefaultLinkGrid(), goldenOpt)
		if err != nil {
			t.Fatalf("worst-case %s: %v", claim, err)
		}
		out = append(out, goldenCheck{
			Name:            fmt.Sprintf("worst-case/%s/%s", claim, protocol.Reno().Name()),
			Worst:           hexBits(res.Worst),
			WorstLink:       hexLink(res.WorstLink),
			Violated:        res.Violated,
			WitnessMeasured: hexBits(res.Witness.Measured),
			WitnessInit:     hexBits(res.Witness.Init...),
			WitnessLink:     hexLink(res.Witness.Link),
			Trials:          res.Trials,
		})
	}
	return out
}

// TestCheckGolden pins, bit for bit, the outcome of Check for every claim
// × {Reno, Scalable, CUBIC, AIMD(2,0.7)} × n ∈ {2, 3}, and of
// CheckWorstCase for every claim on DefaultLinkGrid
// (testdata/check_golden.json): worst measurement and where it occurred,
// the witness, the verdict and the trial count. The search may be
// restructured freely; any change in a score or in the fold's order shows
// here. Regenerate only for an intentional change: `go test
// ./internal/axcheck -run TestCheckGolden -update`.
func TestCheckGolden(t *testing.T) {
	got := measureGolden(t)
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "check_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(raw, want) {
		return
	}
	var fx []goldenCheck
	if err := json.Unmarshal(want, &fx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(got) || i < len(fx); i++ {
		switch {
		case i >= len(fx):
			t.Errorf("%s: not in fixture", got[i].Name)
		case i >= len(got):
			t.Errorf("%s: missing", fx[i].Name)
		case got[i] != fx[i]:
			t.Errorf("%s:\n got %+v\nwant %+v", got[i].Name, got[i], fx[i])
		}
	}
	if !t.Failed() {
		t.Errorf("fixture bytes differ from the measured searches:\n%s", raw)
	}
}
