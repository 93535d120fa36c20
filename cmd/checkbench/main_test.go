package main

import (
	"testing"

	"repro/internal/report"
)

func loadSum(n, ok, rejected, errs int, rps, p99 float64) report.LoadSummary {
	return report.LoadSummary{Requests: n, OK: ok, Rejected: rejected, Errors: errs, Throughput: rps, P99Ms: p99}
}

func TestLoadErrors(t *testing.T) {
	if errs := loadErrors(loadSum(100, 98, 2, 0, 50, 120), 0, 0, 0); len(errs) != 0 {
		t.Errorf("healthy summary rejected: %v", errs)
	}
	if errs := loadErrors(loadSum(0, 0, 0, 0, 0, 0), 0, 0, 0); len(errs) == 0 {
		t.Error("empty summary accepted")
	}
	if errs := loadErrors(loadSum(100, 90, 0, 10, 50, 120), 0, 0, 0); len(errs) == 0 {
		t.Error("client errors accepted")
	}
	if errs := loadErrors(loadSum(100, 90, 2, 0, 50, 120), 0, 0, 0); len(errs) == 0 {
		t.Error("broken accounting accepted")
	}
	if errs := loadErrors(loadSum(100, 98, 2, 0, 10, 120), 50, 0, 0); len(errs) == 0 {
		t.Error("throughput below the floor accepted")
	}
	if errs := loadErrors(loadSum(100, 98, 2, 0, 50, 5000), 0, 2000, 0); len(errs) == 0 {
		t.Error("p99 above the ceiling accepted")
	}
	cold := loadSum(100, 98, 2, 0, 50, 120)
	cold.CacheHitRate = 0.30
	if errs := loadErrors(cold, 0, 0, 0.50); len(errs) == 0 {
		t.Error("cache-hit rate below the floor accepted")
	}
	warm := cold
	warm.CacheHitRate = 0.80
	if errs := loadErrors(warm, 0, 0, 0.50); len(errs) != 0 {
		t.Errorf("cache-hit rate above the floor rejected: %v", errs)
	}
	// Zero floors disable the perf gates.
	if errs := loadErrors(loadSum(100, 100, 0, 0, 0.01, 9e9), 0, 0, 0); len(errs) != 0 {
		t.Errorf("ungated summary rejected: %v", errs)
	}
}
