package scenario

import (
	"strings"
	"testing"
)

// FuzzLoad hardens the JSON loader: arbitrary input must never panic, and
// accepted specs must validate cleanly.
func FuzzLoad(f *testing.F) {
	f.Add(fluidSpec)
	f.Add(`{"name":"x","model":"packet","duration":1,"link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"flows":[{"protocol":"reno"}]}`)
	f.Add(`{"name":"x","model":"nettopo","links":[{"mbps":20,"rtt_ms":42,"buffer_mss":10}],"flows":[{"protocol":"reno","path":[0]}]}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`{"model": 7}`)
	f.Add(`{"name":"x","model":"fluid","link":null,"flows":[]}`)
	f.Fuzz(func(t *testing.T, raw string) {
		s, err := Load(strings.NewReader(raw))
		if err != nil {
			return
		}
		// Whatever Load accepts must re-validate.
		if err := s.Validate(); err != nil {
			t.Fatalf("Load accepted a spec Validate rejects: %v", err)
		}
	})
}
