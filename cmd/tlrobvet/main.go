// Command tlrobvet is the repository's static-analysis gate: it runs
// the stock `go vet` suite plus the four custom analyzers that each
// catch a bug no test, race run or fuzz target catches (the mutant
// matrix in docs/ANALYSIS.md) —
//
//	allocfree     //tlrob:allocfree regions contain no heap-allocating
//	              constructs (the static half of the malloc-count tests)
//	determinism   no wall clock or math/rand in sim-core packages; no
//	              unsorted map iteration feeding output (cache keys and
//	              golden files depend on bit-identical runs)
//	golifecycle   every go statement in cluster/server/store is
//	              lifecycle-tracked: WaitGroup.Add before the spawn or a
//	              stop-channel/ctx.Done() receive in the body
//	bodyclose     every *http.Response from Client.Do/Get/Post reaches
//	              Body.Close on all non-error paths (CFG may-analysis)
//
// Usage:
//
//	go run ./cmd/tlrobvet [-novet] [-list] [-json] [-out file] [-v] [packages]
//
// Packages default to ./... relative to the current directory. All
// packages are loaded once, via a single `go list -export -deps -json`
// pass shared by every analyzer; -v prints each analyzer's wall time
// to stderr. -json replaces the text output on stdout with NDJSON
// records {"file","line","analyzer","message"}; -out writes the same
// NDJSON to a file while keeping text on stdout, which is how CI both
// annotates the diff (problem matcher over the text) and archives the
// findings (artifact from the file).
//
// The exit status is non-zero if go vet fails or any analyzer reports
// a diagnostic. Suppress a finding with //tlrob:allow(reason) on the
// flagged line or the line above; see docs/ANALYSIS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/allocfree"
	"repro/internal/analysis/bodyclose"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/golifecycle"
)

var analyzers = []*analysis.Analyzer{
	allocfree.Analyzer,
	bodyclose.Analyzer,
	determinism.Analyzer,
	golifecycle.Analyzer,
}

// ndjsonRecord is one diagnostic in machine-readable form.
type ndjsonRecord struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	novet := flag.Bool("novet", false, "skip the stock go vet passes")
	list := flag.Bool("list", false, "list the custom analyzers and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as NDJSON on stdout instead of text")
	outFile := flag.String("out", "", "additionally write NDJSON diagnostics to this file")
	verbose := flag.Bool("v", false, "print per-analyzer wall time to stderr")
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if !*novet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, timings, err := analysis.RunTimed(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *verbose {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "tlrobvet: %-14s %8.1fms\n", tm.Analyzer, float64(tm.Elapsed.Microseconds())/1000)
		}
	}

	cwd, _ := os.Getwd()
	records := make([]ndjsonRecord, 0, len(diags))
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && len(rel) < len(d.Pos.Filename) {
				d.Pos.Filename = rel
			}
		}
		records = append(records, ndjsonRecord{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
		if *asJSON {
			continue // NDJSON replaces the text lines below
		}
		fmt.Println(d)
	}
	if *asJSON {
		if err := writeNDJSON(os.Stdout, records); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err == nil {
			err = writeNDJSON(f, records)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlrobvet: writing %s: %v\n", *outFile, err)
			os.Exit(2)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tlrobvet: %d finding(s)\n", len(diags))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func writeNDJSON(w io.Writer, records []ndjsonRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
