package scope

import "testing"

// The root package is deterministic as an exact match; a prefix match
// on "ddpolice" would put the whole module, live edges included, on
// ddclock's list.
func TestInDeterministic(t *testing.T) {
	for path, want := range map[string]bool{
		"ddpolice":                    true,
		"ddpolice/internal/sim":       true,
		"ddpolice/internal/sim/sub":   true,
		"ddpolice/internal/gnet":      false,
		"ddpolice/internal/gnet/core": true,
		"ddpolice/internal/telemetry": false,
		"ddpolice/cmd/ddexp":          false,
		"ddpolice/internal/simulator": false,
	} {
		if got := InDeterministic(path); got != want {
			t.Errorf("InDeterministic(%q) = %v, want %v", path, got, want)
		}
	}
}
