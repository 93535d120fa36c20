package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes returns the host's cumulative CPU times; on a system
// without /proc/stat it returns zeros and steal share reads as 0.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so only the first eight sum.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two readings: the machine's share of any noise in the run.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// gcWindow measures garbage-collector work over a stretch of the run.
type gcWindow struct{ start runtime.MemStats }

func startGC() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// stop returns the GC cycles run and the MB allocated since start.
func (w *gcWindow) stop() (cycles float64, allocMB float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return float64(end.NumGC - w.start.NumGC), float64(end.TotalAlloc-w.start.TotalAlloc) / (1 << 20)
}

// processCPU is the CPU time the process has used, user plus system.
// The kernel leaves stolen time out of it, so it is steadier than wall
// time on a shared host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
