package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReportSectionsAreExpOutputs: `-report DIR -quick` writes one
// section per -exp id, in -exp order, whose body is that id's stdout
// under `-exp all -quick`, fenced; the plots' image links name SVG files
// written next to report.md.
func TestReportSectionsAreExpOutputs(t *testing.T) {
	all, stderr, ok := runMain(t, "-exp", "all", "-quick")
	if !ok {
		t.Fatalf("-exp all -quick failed: %s", stderr)
	}
	// Each experiment prints "==== id ====", its text, then its
	// "---- id done in … ----" line and a blank line.
	block := regexp.MustCompile(`(?s)==== (\S+) ====\n(.*?)---- (\S+) done in [^\n]* ----\n\n`)
	var ids, texts []string
	for _, m := range block.FindAllStringSubmatch(all, -1) {
		if m[1] != m[3] {
			t.Fatalf("block %q closed by %q", m[1], m[3])
		}
		ids, texts = append(ids, m[1]), append(texts, m[2])
	}
	if len(ids) < 15 {
		t.Fatalf("parsed %d experiments from -exp all:\n%s", len(ids), all)
	}

	dir := t.TempDir()
	if _, stderr, ok := runMain(t, "-report", dir, "-quick"); !ok {
		t.Fatalf("-report failed: %s", stderr)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(string(raw), "\n## ")[1:]
	if len(sections) != len(ids) {
		t.Errorf("%d report sections for %d experiments %v", len(sections), len(ids), ids)
	}
	for i := range min(len(sections), len(ids)) {
		s := sections[i]
		heading, _, _ := strings.Cut(s, "\n")
		if !strings.HasSuffix(heading, "(`-exp "+ids[i]+"`)") {
			t.Errorf("section %d heading %q does not name -exp %s", i, heading, ids[i])
		}
		if body := "```\n" + strings.TrimRight(texts[i], "\n") + "\n```\n"; !strings.Contains(s, body) {
			t.Errorf("section %q does not hold the fenced -exp %s output:\n%s\nwant:\n%s", heading, ids[i], s, body)
		}
	}
	images := regexp.MustCompile(`!\[[^\]]*\]\(([^)]+)\)`).FindAllStringSubmatch(string(raw), -1)
	if len(images) != 2 {
		t.Errorf("%d image links, want the Figure 1 and AIMD-fairness plots", len(images))
	}
	for _, m := range images {
		svg, err := os.ReadFile(filepath.Join(dir, m[1]))
		if err != nil || !strings.HasPrefix(string(svg), "<svg") {
			t.Errorf("asset %s: err %v, not an SVG document", m[1], err)
		}
	}
}
