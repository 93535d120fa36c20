package cluster

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain wraps the whole package in the goroutine-leak guard: every
// coordinator, prober, repair pass, and hedged forward spawned by a
// test must be joined or cancelled by the time the binary exits.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
