package server

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain wraps the whole package in the goroutine-leak guard:
// workers, replica pushes, SSE subscribers, and Shutdown joiners
// spawned by tests must all be gone when the binary exits.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
