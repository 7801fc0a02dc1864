package axcheck

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLintJSON(t *testing.T) {
	cases := []struct {
		name string
		data string
		kind string
		ok   bool
	}{
		{"valid fluid scenario",
			`{"name":"x","model":"fluid","link":{"mbps":20,"rtt_ms":42,"buffer_mss":20},"flows":[{"protocol":"reno"}]}`,
			"scenario", true},
		{"valid chaos schedule",
			`{"events":[{"kind":"link-flap","at":5,"duration":2}]}`,
			"chaos", true},
		{"valid nettopo scenario",
			`{"name":"t","model":"nettopo","links":[{"mbps":20,"rtt_ms":42,"buffer_mss":20,"src":"a","dst":"b"}],"flows":[{"protocol":"reno","path":[0]}]}`,
			"scenario", true},
		{"not json", `{`, "", false},
		{"neither schema", `{"foo": 1}`, "", false},
		{"both schemas", `{"model":"fluid","events":[]}`, "", false},
		{"unknown scenario field",
			`{"name":"x","model":"fluid","link":{"mbps":20,"rtt_ms":42,"buffer_mss":20},"flows":[{"protocol":"reno"}],"bogus":1}`,
			"scenario", false},
		{"bad protocol spec",
			`{"name":"x","model":"fluid","link":{"mbps":20,"rtt_ms":42,"buffer_mss":20},"flows":[{"protocol":"renno"}]}`,
			"scenario", false},
		{"cyclic nettopo",
			`{"name":"t","model":"nettopo","links":[{"mbps":20,"rtt_ms":42,"buffer_mss":20,"src":"a","dst":"b"},{"mbps":20,"rtt_ms":42,"buffer_mss":20,"src":"b","dst":"a"}],"flows":[{"protocol":"reno","path":[0]}]}`,
			"scenario", false},
		{"negative packet start",
			`{"name":"x","model":"packet","link":{"mbps":20,"rtt_ms":42,"buffer_mss":20},"flows":[{"protocol":"reno","start":-1}]}`,
			"scenario", false},
		{"negative packet extra delay",
			`{"name":"x","model":"packet","link":{"mbps":20,"rtt_ms":42,"buffer_mss":20},"flows":[{"protocol":"reno","extra_delay_ms":-5}]}`,
			"scenario", false},
		{"valid packet start and extra delay",
			`{"name":"x","model":"packet","link":{"mbps":20,"rtt_ms":42,"buffer_mss":20},"flows":[{"protocol":"reno","start":2,"extra_delay_ms":20}]}`,
			"scenario", true},
		{"bad chaos event kind",
			`{"events":[{"kind":"nonsense","at":0}]}`,
			"chaos", false},
	}
	for _, c := range cases {
		kind, err := LintJSON([]byte(c.data))
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.kind != "" && kind != c.kind {
			t.Errorf("%s: kind = %q, want %q", c.name, kind, c.kind)
		}
	}
}

// TestLintShippedScenarios keeps every artifact the repository ships
// loadable — the in-process version of CI's axcheck -lint gate.
func TestLintShippedScenarios(t *testing.T) {
	results, err := LintPaths([]string{"../../scenarios"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 10 {
		t.Fatalf("only %d artifacts under scenarios/ — walk broken?", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Path, r.Err)
		}
	}
}

func TestLintPathsWalksAndFails(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	bad := filepath.Join(dir, "sub", "bad.json")
	if err := os.MkdirAll(filepath.Dir(bad), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, []byte(`{"events":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`{"nope":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := LintPaths([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Path != good || results[0].Err != nil {
		t.Errorf("good file: %+v", results[0])
	}
	if results[1].Path != bad || results[1].Err == nil {
		t.Errorf("bad file not flagged: %+v", results[1])
	}
	if _, err := LintPaths([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Error("missing path accepted")
	}
}
