package tlrob

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// singlesInput mixes memory-bound and compute-bound benchmarks with
// repeats, so duplicates and more distinct names than workers are both
// covered.
var singlesInput = []string{"art", "mcf", "swim", "twolf", "art", "gzip", "mcf", "crafty", "gzip"}

// sequentialSingles is the reference SingleIPCs must reproduce: one
// RunSingle per distinct name, in order, on the calling goroutine.
func sequentialSingles(t *testing.T, names []string, opt Options) map[string]float64 {
	t.Helper()
	want := map[string]float64{}
	for _, b := range names {
		if _, done := want[b]; done {
			continue
		}
		r, err := RunSingle(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[b] = r.IPC
	}
	return want
}

// TestSingleIPCsMatchesSequential: the pooled reference runs give
// exactly the map sequential RunSingle calls give, whatever the worker
// count.
func TestSingleIPCsMatchesSequential(t *testing.T) {
	opt := Options{Budget: 4_000, Seed: 3}
	want := sequentialSingles(t, singlesInput, opt)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := SingleIPCs(singlesInput, opt)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d: got %v, want %v", procs, got, want)
		}
	}
}

// TestSingleIPCsUnknownNames: every unknown name is reported in one
// error before anything runs. The budget is far beyond what a test
// could simulate, so a reference run of the valid name would hang.
func TestSingleIPCsUnknownNames(t *testing.T) {
	type result struct {
		m   map[string]float64
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := SingleIPCs([]string{"art", "nope", "bogus", "nope"}, Options{Budget: 1 << 40})
		done <- result{m, err}
	}()
	select {
	case r := <-done:
		if r.err == nil || r.m != nil {
			t.Fatalf("unknown names accepted: %v, %v", r.m, r.err)
		}
		msg := r.err.Error()
		for _, name := range []string{`"nope"`, `"bogus"`} {
			if !strings.Contains(msg, name) {
				t.Errorf("error %q does not name %s", msg, name)
			}
		}
		if strings.Contains(msg, "art") || strings.Count(msg, `"nope"`) != 1 {
			t.Errorf("error %q should name each unknown benchmark once and nothing else", msg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SingleIPCs simulated before rejecting unknown names")
	}
}

// TestSingleIPCsIgnoreTelemetry: reference runs keep only the IPC, so
// asking for telemetry neither changes the map nor builds a collector
// for each reference machine.
func TestSingleIPCsIgnoreTelemetry(t *testing.T) {
	names := []string{"art", "gzip"}
	plain := Options{Budget: 4_000}
	traced := plain
	traced.Telemetry = true
	traced.TelemetrySampleInterval = 1
	off, err := SingleIPCs(names, plain)
	if err != nil {
		t.Fatal(err)
	}
	on, err := SingleIPCs(names, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("telemetry changed the reference IPCs: %v vs %v", on, off)
	}
	allocMB := func(opt Options) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SingleIPCs(names, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	if a, b := allocMB(traced), allocMB(plain); a > 1.1*b {
		t.Fatalf("reference runs with Telemetry set allocated %.2f MB, without %.2f MB", a, b)
	}
}
