// Package leakcheck fails a test, or a whole test binary, that leaves
// goroutines running: it snapshots the running goroutines before and
// reports every goroutine created since that is still running after a
// settling window. It catches a spawn that is never joined or
// cancelled. It cannot see one that exits late but within the window,
// such as work still running when Shutdown or Close returns; tests that
// pin a join check that directly.
//
// Wire it into a package with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// or guard a single test with
//
//	defer leakcheck.Check(t)()
//
// Goroutines are identified by ID from runtime.Stack headers, and
// stragglers get a settling window before being reported, because
// legitimate shutdown (WaitGroup drains, context propagation) is
// asynchronous. Known-benign runtime residents — net/http's idle
// connection readers/writers, the testing harness itself — are
// allowlisted by stack substring.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// allowlist holds stack substrings of goroutines that legitimately
// outlive a test: http keep-alive connections parked in the idle pool
// and the testing machinery.
var allowlist = []string{
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"net/http.(*Transport).",
	"net/http.setRequestCancel",
	"testing.(*M).",
	"testing.(*T).",
	"testing.runTests",
	"testing.tRunner",
	"os/signal.signal_recv",
	"runtime/trace.Start",
}

// settleWindow bounds how long stragglers get to finish unwinding
// before they count as leaks.
const settleWindow = 2 * time.Second

// Main runs the package's tests with a leak check around the whole
// binary: call it from TestMain. A leak turns a passing run into a
// failing one; the offending stacks go to stderr.
func Main(m *testing.M) {
	before := ids()
	code := m.Run()
	if stale := settle(before, settleWindow); len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) leaked by this test binary:\n\n%s\n",
			len(stale), strings.Join(stale, "\n\n"))
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// Check snapshots the current goroutines; defer the returned func to
// fail t if goroutines created during the test outlive it.
func Check(t *testing.T) func() {
	before := ids()
	return func() {
		if stale := settle(before, settleWindow); len(stale) > 0 {
			t.Errorf("leakcheck: %d goroutine(s) leaked by this test:\n\n%s",
				len(stale), strings.Join(stale, "\n\n"))
		}
	}
}

// settle polls until every goroutine not in before has exited (or is
// allowlisted), returning the stacks of those still running at the
// deadline.
func settle(before map[string]bool, window time.Duration) []string {
	deadline := time.Now().Add(window)
	for {
		stale := leaked(before)
		if len(stale) == 0 || time.Now().After(deadline) {
			return stale
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leaked returns the stacks of goroutines running now that were not in
// before and are not allowlisted.
func leaked(before map[string]bool) []string {
	var out []string
	for _, st := range stacks() {
		id := goroutineID(st)
		if id == "" || before[id] || allowed(st) {
			continue
		}
		out = append(out, st)
	}
	return out
}

// ids returns the IDs of all currently running goroutines.
func ids() map[string]bool {
	set := make(map[string]bool)
	for _, st := range stacks() {
		if id := goroutineID(st); id != "" {
			set[id] = true
		}
	}
	return set
}

// stacks captures one stanza per running goroutine.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	return strings.Split(strings.TrimSpace(string(buf)), "\n\n")
}

// goroutineID parses the N from a "goroutine N [state]:" stanza
// header.
func goroutineID(stanza string) string {
	rest, ok := strings.CutPrefix(stanza, "goroutine ")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, ' '); i > 0 {
		return rest[:i]
	}
	return ""
}

func allowed(stanza string) bool {
	for _, s := range allowlist {
		if strings.Contains(stanza, s) {
			return true
		}
	}
	return false
}
