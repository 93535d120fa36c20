package experiments

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// fleetMiss runs one simulation as the simd server runs a cache miss: a
// fresh Runner (so the four single-thread references are simulated
// again), Mix 1 under R-ROB16 at a 1k budget, telemetry on.
func fleetMiss(tb testing.TB) {
	tb.Helper()
	mix, _ := workload.MixByName("Mix 1")
	r := NewRunner(Params{Budget: 1000, Seed: 1, Telemetry: true})
	if _, err := r.RunMixes(context.Background(), RROB(16), []workload.Mix{mix}); err != nil {
		tb.Fatal(err)
	}
}

// TestFleetMissAllocations bounds the bytes one fleet-shaped miss
// allocates once the process is warm: the machines' caches, BTBs and
// ROB rings come from the pool (the caches are rebuilt lazily), and
// telemetry rings grow only as far as the short run samples. The
// minimum of three misses is taken so a garbage collection that empties
// the pool mid-measurement cannot fail the test.
func TestFleetMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop released machines")
	}
	// 174 KB measured (Go 1.24, linux/amd64), plus 38% for what the
	// toolchain or a grown run may add.
	const maxBytes = 240 << 10
	fleetMiss(t) // warm-up: fills the machine pool
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fleetMiss(t)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("one warm miss allocates %d B", best)
	if best > maxBytes {
		t.Fatalf("one warm miss allocates %d B, want under %d", best, maxBytes)
	}
}

// BenchmarkFleetMiss times one fleet-shaped miss; -benchmem reports its
// bytes and allocations.
func BenchmarkFleetMiss(b *testing.B) {
	fleetMiss(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleetMiss(b)
	}
}
