package axcheck

import (
	"strings"
	"testing"

	"repro/internal/protocol"
)

// smallGrid keeps the worst-case tests fast.
var smallGrid = []LinkPoint{
	{C: 50, Tau: 1, N: 1},
	{C: 50, Tau: 1, N: 2},
	{C: 100, Tau: 50, N: 2},
	{C: 300, Tau: 6, N: 4},
}

var wcOpt = Options{Steps: 1200, RandomTrials: 4, Seed: 2, Slack: DefaultSlack}

func TestWorstCaseEfficiencyBoundSurvives(t *testing.T) {
	// Table 1's angle-bracket efficiency for AIMD is <b> = 0.5; the
	// claim (with slack for estimation noise) must survive every corner,
	// including the near-bufferless ones where it is tight.
	res, err := CheckWorstCase(protocol.Reno(), Efficient, 0.45, smallGrid, wcOpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatalf("worst-case efficiency <0.5> falsified: %v", res.Witness)
	}
	if res.Trials == 0 {
		t.Fatal("no trials ran")
	}
}

func TestWorstCaseOverclaimKilled(t *testing.T) {
	// Claiming AIMD(1,0.5) is 0.8-efficient across ALL links dies at the
	// shallow-buffer corners (where efficiency → b = 0.5), even though it
	// holds on deep buffers.
	res, err := CheckWorstCase(protocol.Reno(), Efficient, 0.8, smallGrid, wcOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatalf("0.8-efficiency across links survived; worst %v at %+v", res.Worst, res.WorstLink)
	}
	// The witness must be a shallow-buffer link.
	if res.Witness.Link.Tau > res.Witness.Link.C*0.1 {
		t.Fatalf("witness link not shallow: %+v", res.Witness.Link)
	}
	if !strings.Contains(res.Witness.String(), "on link") {
		t.Fatalf("witness string = %q", res.Witness.String())
	}
}

func TestWorstCaseFairSkipsSingleSender(t *testing.T) {
	res, err := CheckWorstCase(protocol.Reno(), Fair, 0.8, smallGrid, wcOpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatalf("AIMD worst-case fairness falsified: %v", res.Witness)
	}
	// n=1 links contribute no trials for fairness: 3 usable links ×
	// (corners+random) each; just assert some ran.
	if res.Trials == 0 {
		t.Fatal("no trials")
	}
}

func TestWorstCaseLossBoundDirection(t *testing.T) {
	// AIMD's worst-case loss-avoidance is <1> — i.e. no useful bound; any
	// specific small claim should die somewhere (more senders on a small
	// link push per-event loss up).
	tight := wcOpt
	tight.Slack = 0.001
	res, err := CheckWorstCase(protocol.Reno(), LossAvoiding, 0.001, smallGrid, tight)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatalf("0.1%%-loss claim survived all links; worst %v", res.Worst)
	}
}

func TestDefaultLinkGridShape(t *testing.T) {
	grid := DefaultLinkGrid()
	if len(grid) != 27 {
		t.Fatalf("grid size = %d, want 27", len(grid))
	}
	for _, lp := range grid {
		if lp.C <= 0 || lp.Tau <= 0 || lp.N < 1 {
			t.Fatalf("bad grid point %+v", lp)
		}
	}
}

// TestCheckWorstCaseRejectsUnknownClaim: an unknown claim has no metric
// to orient the search, so it is an error before any link is tried, not
// a panic on the claims table.
func TestCheckWorstCaseRejectsUnknownClaim(t *testing.T) {
	if _, err := CheckWorstCase(protocol.Reno(), Claim(99), 0.5, smallGrid, wcOpt); err == nil {
		t.Fatal("accepted")
	}
}
