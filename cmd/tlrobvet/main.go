// Command tlrobvet is the repository's static-analysis gate: it runs
// the stock `go vet` suite plus the three custom analyzers that each
// catch a bug no test, race run or fuzz target catches (the mutant
// matrix in docs/ANALYSIS.md) —
//
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
//	go run ./cmd/tlrobvet [-novet] [-list] [-out file] [packages]
//
// Packages default to ./... relative to the current directory. All
// packages are loaded once, via a single `go list -export -deps -json`
// pass shared by every analyzer. Findings print as text on stdout;
// -out also writes them to a file as NDJSON records
// {"file","line","analyzer","message"}, which is how CI both annotates
// the diff (problem matcher over the text) and archives the findings
// (artifact from the file).
//
// The exit status is non-zero if go vet fails or any analyzer reports
// a diagnostic. Suppress a finding with //tlrob:allow(reason) on the
// flagged line or the line above; see docs/ANALYSIS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/bodyclose"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/golifecycle"
)

var analyzers = []*analysis.Analyzer{
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
	outFile := flag.String("out", "", "also write the diagnostics to this file as NDJSON")
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
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
		fmt.Println(d)
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err == nil {
			enc := json.NewEncoder(f)
			for _, r := range records {
				if err = enc.Encode(r); err != nil {
					break
				}
			}
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
