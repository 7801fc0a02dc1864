package game

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

var updateGolden = flag.Bool("update", false, "rewrite testdata/payoffs_golden.json")

// goldenGame is one game the fixture pins: every profile's payoffs, the
// pure equilibria at tolerance 0.05, and best-response dynamics from
// all-first-strategy.
type goldenGame struct {
	Name      string            `json:"name"`
	Payoffs   map[string]string `json:"payoffs"` // profile "i,j,…" → hex bits, space-separated
	PureNash  []string          `json:"pure_nash"`
	BRDFinal  string            `json:"brd_final"`
	Converged bool              `json:"brd_converged"`
}

func profileString(profile []int) string {
	parts := make([]string, len(profile))
	for i, s := range profile {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, ",")
}

func hexBits(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return strings.Join(parts, " ")
}

func measureGame(t *testing.T, name string, g *Game) goldenGame {
	t.Helper()
	out := goldenGame{Name: name, Payoffs: map[string]string{}}
	profile := make([]int, g.Players())
	for done := false; !done; {
		p, err := g.Payoffs(profile)
		if err != nil {
			t.Fatalf("%s %v: %v", name, profile, err)
		}
		out.Payoffs[profileString(profile)] = hexBits(p)
		done = true
		for i := range profile {
			if profile[i]++; profile[i] < len(g.Menu()) {
				done = false
				break
			}
			profile[i] = 0
		}
	}
	eqs, err := g.PureNash(0.05)
	if err != nil {
		t.Fatalf("%s PureNash: %v", name, err)
	}
	out.PureNash = []string{}
	for _, eq := range eqs {
		out.PureNash = append(out.PureNash, profileString(eq))
	}
	final, converged, err := g.BestResponseDynamics(make([]int, g.Players()), 10)
	if err != nil {
		t.Fatalf("%s dynamics: %v", name, err)
	}
	out.BRDFinal, out.Converged = profileString(final), converged
	return out
}

func measureGolden(t *testing.T) []goldenGame {
	t.Helper()
	var out []goldenGame
	for _, n := range []int{2, 3} {
		out = append(out, measureGame(t, fmt.Sprintf("reno-scalable/n=%d/goodput", n), renoVsScalable(t, n)))
	}
	for _, pay := range []struct {
		name string
		fn   Payoff
	}{{"goodput", GoodputPayoff}, {"loss-sensitive-100", LossSensitivePayoff(100)}} {
		g, err := New(link(), []protocol.Protocol{protocol.Reno(), protocol.DefaultPCC()}, 2, 3000)
		if err != nil {
			t.Fatal(err)
		}
		g.SetPayoff(pay.fn)
		out = append(out, measureGame(t, "reno-pcc/n=2/"+pay.name, g))
	}
	return out
}

// TestPayoffsGolden pins, bit for bit, the payoffs of every profile of
// Reno/Scalable (n = 2 and 3, 2000 steps) and of Reno/PCC (n = 2, 3000
// steps, under GoodputPayoff and LossSensitivePayoff(100)), with the
// games' pure equilibria and best-response outcomes
// (testdata/payoffs_golden.json). How a profile is simulated may change
// freely; any change in a payoff shows here. Regenerate only for an
// intentional change: `go test ./internal/game -run TestPayoffsGolden
// -update`.
func TestPayoffsGolden(t *testing.T) {
	got := measureGolden(t)
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "payoffs_golden.json")
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
	if !bytes.Equal(raw, want) {
		t.Errorf("fixture bytes differ from the measured games:\n%s", raw)
	}
}
