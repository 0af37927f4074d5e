// Package lint is a small, dependency-free static-analysis framework plus
// the determinism and concurrency invariants this repository enforces with
// it (see the analyzer subpackages and cmd/ndlint).
//
// The design deliberately mirrors golang.org/x/tools/go/analysis — an
// Analyzer owns a Run func that inspects one type-checked package through a
// Pass — but is built purely on the standard library (go/ast, go/types and
// the "source" importer), because this repository carries no module
// dependencies. Analyzers therefore port to the upstream framework almost
// mechanically if we ever vendor x/tools.
//
// Why custom linters at all: every quantitative table in EXPERIMENTS.md
// rests on the invariant that one 64-bit seed determines an entire
// multi-node, multi-trial run. Nothing in the type system stops a future
// change from importing math/rand, reading the wall clock inside the slot
// engine, iterating a map in an output path, or sharing a *rng.Source
// across goroutines — so machines check it here.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It is stateless: Run is called
// once per package with a fresh Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// It must be a lowercase identifier.
	Name string
	// Doc explains what the analyzer reports and why it matters.
	Doc string
	// Run inspects one package and reports findings through the pass.
	// Returning an error aborts the whole lint run (reserved for internal
	// failures, not findings).
	Run func(*Pass) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset resolves token positions for every file of the package.
	Fset *token.FileSet
	// Files are the parsed source files (comments included).
	Files []*ast.File
	// Pkg is the type-checker's package object.
	Pkg *types.Package
	// Info holds the type-checking facts (Types, Defs, Uses, Selections).
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// JSON renders the diagnostic as one NDJSON object — the machine-readable
// shape `ndlint -json` emits, one object per line, stable field order.
func (d Diagnostic) JSON() string {
	b, err := json.Marshal(struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
	}{d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message})
	if err != nil {
		// All fields are plain strings/ints; Marshal cannot fail on them.
		panic(fmt.Sprintf("lint: marshal diagnostic: %v", err))
	}
	return string(b)
}

// GitHub renders the diagnostic as a GitHub Actions workflow command
// (::error …) so CI surfaces findings as inline annotations. Values are
// escaped per the workflow-command rules: %, CR and LF everywhere, plus
// ',' and ':' inside properties.
func (d Diagnostic) GitHub() string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=%s::%s",
		githubEscapeProperty(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
		githubEscapeProperty("ndlint/"+d.Analyzer), githubEscapeData(d.Message))
}

func githubEscapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func githubEscapeProperty(s string) string {
	s = githubEscapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}

// SortDiagnostics orders diagnostics by (file, line, column, analyzer) —
// the deterministic report order of multi-package runs.
func SortDiagnostics(diags []Diagnostic) {
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
		return a.Analyzer < b.Analyzer
	})
}

// IgnoreDirective is the comment prefix that suppresses findings. A comment
//
//	//ndlint:ignore <name> [reason...]
//
// suppresses diagnostics of analyzer <name> (or of every analyzer, when
// <name> is "all") on the directive's own line and on the line immediately
// below it, so it works both as a trailing comment and as a lead-in line.
const IgnoreDirective = "//ndlint:ignore"

// A Directive is one parsed //ndlint:ignore comment. Used reports whether
// it suppressed at least one diagnostic during the analyzer run that
// collected it — a directive that suppresses nothing is stale and should be
// deleted (`ndlint -verify-suppressions` enforces this).
type Directive struct {
	// Pos is the directive comment's position.
	Pos token.Position
	// Analyzer is the suppressed analyzer name (or "all").
	Analyzer string
	// Used is true when the directive dropped at least one diagnostic.
	Used bool
}

// RunAnalyzers applies the analyzers to pkg and returns the surviving
// diagnostics sorted by position. Findings suppressed by ignore directives
// are dropped.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunAnalyzersDirectives(pkg, analyzers)
	return diags, err
}

// RunAnalyzersDirectives is RunAnalyzers plus the package's parsed ignore
// directives with their usage marked, so callers can report stale
// suppressions.
func RunAnalyzersDirectives(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []Directive, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	directives := Directives(pkg)
	diags = suppress(directives, diags)
	SortDiagnostics(diags)
	return diags, directives, nil
}

// Directives parses every //ndlint:ignore comment of pkg's files, in file
// order. Malformed directives (no analyzer name) are skipped.
func Directives(pkg *Package) []Directive {
	var out []Directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnoreDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue // malformed: no analyzer name
				}
				out = append(out, Directive{
					Pos:      pkg.Fset.Position(c.Pos()),
					Analyzer: fields[0],
				})
			}
		}
	}
	return out
}

// suppress drops diagnostics covered by ignore directives, marking each
// directive that fired. A directive covers its own line and the line below;
// the first covering directive (in source order) takes the credit.
func suppress(directives []Directive, diags []Diagnostic) []Diagnostic {
	if len(directives) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for i := range directives {
			dir := &directives[i]
			if dir.Analyzer != d.Analyzer && dir.Analyzer != "all" {
				continue
			}
			if dir.Pos.Filename != d.Pos.Filename {
				continue
			}
			if dir.Pos.Line != d.Pos.Line && dir.Pos.Line+1 != d.Pos.Line {
				continue
			}
			dir.Used = true
			suppressed = true
			break
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// HotpathDirective marks a function whose body must stay allocation-free
// and lock-free: the hotalloc and lockorder analyzers enforce it. It goes
// in the function's doc comment:
//
//	// deliver hands one clear message to the protocol.
//	//
//	//nd:hotpath
//	func (nd *node) deliver(msg radio.Message) { ... }
//
// The contract is per-slot / per-delivery code: anything executed O(slots)
// or O(deliveries) times inside a trial. Per-run setup does not qualify.
const HotpathDirective = "//nd:hotpath"

// ScratchOwnerDirective documents a function that adopts a scratch buffer
// (AdoptRateBuf) without releasing it, because release happens elsewhere by
// contract. The scratchalias analyzer accepts the annotation in place of an
// in-function ReleaseRateBuf call:
//
//	//nd:scratch-owner finishRun releases every adopted buffer at run end
const ScratchOwnerDirective = "//nd:scratch-owner"

// RunScopedDirective marks a struct type whose values live no longer than
// one engine run (sim's syncRun, the asynchronous resolver env): the
// scratchalias analyzer lets such a struct hold slices borrowed from a
// scratch, which are only recycled after the run ends.
//
//	//nd:run-scoped the run ends before its scratch is recycled
const RunScopedDirective = "//nd:run-scoped"

// FuncHasDirective reports whether fn's doc comment contains a line whose
// directive prefix is exactly directive (an //nd:... machine comment, per
// the go doc-comment directive convention).
func FuncHasDirective(fn *ast.FuncDecl, directive string) bool {
	return HasDirective(fn.Doc, directive)
}

// HasDirective reports whether the doc comment doc contains a line whose
// directive prefix is exactly directive.
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := c.Text
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// RNGPath is the import path of the repository's seeded random source; the
// only package allowed to touch math/rand, and the type analyzers key on.
const RNGPath = "m2hew/internal/rng"

// SimPath and RadioPath locate the engine seam packages the observer-purity
// analyzer keys on (matched by path so test fixtures can supply stubs).
const (
	SimPath   = "m2hew/internal/sim"
	RadioPath = "m2hew/internal/radio"
)

// IsRNGSource reports whether t is rng.Source or *rng.Source (matched by
// package path and name so test fixtures can supply a stub).
func IsRNGSource(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == RNGPath && obj.Name() == "Source"
}

// InPackages reports whether path is one of the listed package paths or
// lies underneath one of them.
func InPackages(path string, roots []string) bool {
	for _, r := range roots {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}
