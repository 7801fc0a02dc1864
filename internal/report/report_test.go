package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// quickFlags are cmd/reproduce's -quick values at the default link.
func quickFlags() Flags {
	return Flags{
		Opt:      metrics.Options{Steps: 1200, Session: metrics.NewSession()},
		Duration: 20, Quick: true, Seed: 1, Mbps: 20, Buffer: 100, N: 2,
	}
}

// TestGenerateQuick: one section per catalogue entry, in order, headed
// by its title and id, its body the entry's fenced text; the plots carry
// SVG.
func TestGenerateQuick(t *testing.T) {
	f := quickFlags()
	sections, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != len(Experiments) {
		t.Fatalf("%d sections for %d experiments", len(sections), len(Experiments))
	}
	svgs := 0
	for i, s := range sections {
		e := Experiments[i]
		if want := e.Title + " (`-exp " + e.ID + "`)"; s.Title != want {
			t.Errorf("section %d title %q, want %q", i, s.Title, want)
		}
		text, err := e.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		if s.Body != fence(text) {
			t.Errorf("%s: body is not the fenced text:\n%s\nwant:\n%s", e.ID, s.Body, fence(text))
		}
		if s.SVGName != "" {
			svgs++
			if !strings.HasPrefix(s.SVG, "<svg") {
				t.Errorf("section %q: SVG malformed", s.Title)
			}
		}
	}
	if svgs != 2 {
		t.Errorf("%d SVG sections, want the Figure 1 and AIMD-fairness plots", svgs)
	}
}

// TestExperimentIDsUnique: -exp selects by id, so no two entries share
// one, and "all" selects every entry.
func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("duplicate or reserved id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: missing title or run function", e.ID)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	sections := []Section{
		{Title: "A", Comment: "c", Body: fence("row1\trow2")},
		{Title: "B", SVGName: "b.svg", SVG: "<svg/>"},
	}
	md := Render(sections, time.Unix(0, 0).UTC())
	for _, want := range []string{"# Reproduction report", "## A", "```", "![B](b.svg)"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	path, err := Write(dir, quickFlags(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "report.md" {
		t.Fatalf("path = %v", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "Table 2") {
		t.Fatal("report.md missing Table 2 section")
	}
	// The SVG assets landed next to it.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	svgs := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".svg") {
			svgs++
		}
	}
	if svgs < 2 {
		t.Fatalf("only %d SVG files written", svgs)
	}
}
