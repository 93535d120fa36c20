// Package analysis is a small, self-contained static-analysis framework
// modeled on golang.org/x/tools/go/analysis. It exists because some of
// the repository's load-bearing invariants — bit-identical determinism,
// goroutine lifecycles, closed response bodies — are otherwise enforced
// only dynamically (cache-key divergence, leak checks) or not at all.
// Like the paper's DoD check, a cheap static approximation at build
// time replaces an expensive dynamic failure later.
//
// The framework deliberately mirrors the x/tools API surface (Analyzer,
// Pass, Reportf, analysistest-style want comments) so the analyzers can
// be ported to a stock multichecker wholesale if the dependency ever
// becomes available; it is implemented entirely on the standard
// library's go/ast and go/types, with package loading driven by
// `go list -export -json` and type import from gc export data.
//
// Diagnostics can be suppressed line-by-line with a
//
//	//tlrob:allow(reason)
//
// comment on the flagged line or the line immediately above it. The
// reason is mandatory by convention (reviewed like a nolint comment);
// see docs/ANALYSIS.md for the contract.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Run inspects a single package via
// the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments; lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description (first line is the summary).
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// A Pass connects an Analyzer to the single package being analyzed.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // parsed non-test sources, with comments
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, with a resolved file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package, filters suppressed
// diagnostics, and returns the remainder sorted by file, line, column,
// analyzer — a deterministic order suitable for golden CI output.
// Suppression maps are computed once per package and shared by all
// analyzers.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := make([]map[lineKey]bool, len(pkgs))
	for i, pkg := range pkgs {
		allows[i] = allowedLines(pkg.Fset, pkg.Files)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		for i, pkg := range pkgs {
			allow := allows[i]
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				report: func(d Diagnostic) {
					if !allow[lineKey{d.Pos.Filename, d.Pos.Line}] {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
			}
		}
	}
	Sort(diags)
	return diags, nil
}

// Sort orders diagnostics by file, line, column, analyzer, message.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// AllowDirective suppresses all diagnostics on its own line and the
// next line. It follows the Go directive-comment convention (no space
// after //), so gofmt leaves it alone and godoc hides it. A
// parenthesized reason is required by convention:
// //tlrob:allow(cold error path).
const AllowDirective = "//tlrob:allow"

type lineKey struct {
	file string
	line int
}

// allowedLines maps every line carrying (or immediately following) a
// //tlrob:allow comment, so diagnostics there are dropped.
func allowedLines(fset *token.FileSet, files []*ast.File) map[lineKey]bool {
	allow := make(map[lineKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowDirective) {
					continue
				}
				pos := fset.Position(c.Pos())
				allow[lineKey{pos.Filename, pos.Line}] = true
				allow[lineKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return allow
}

// IsTestFile reports whether the file at pos is a _test.go file.
// Analyzers whose rules apply only to production code call this.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// named unwraps t to a *types.Named, looking through pointers and
// aliases; nil if t is not (a pointer to) a named type.
func named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// IsNamedType reports whether t is the named type pkgSuffix.name,
// where pkgSuffix matches the final segment of the defining package's
// import path (so testdata fixtures can stand in for real packages).
func IsNamedType(t types.Type, pkgSuffix, name string) bool {
	n := named(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Name() != name {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}
