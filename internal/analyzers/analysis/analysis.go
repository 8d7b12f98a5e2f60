// Package analysis is a self-contained miniature of the go/analysis
// framework: an Analyzer is a named check that runs over one type-checked
// package and reports position-anchored diagnostics. The repo cannot vendor
// golang.org/x/tools, so this package supplies the same core contract
// (Analyzer / Pass / Diagnostic) plus the two pieces x/tools keeps in
// sibling packages: a module-aware package loader (load.go) built on
// `go list -export` and the compiler's export data, and the
// //batlint:ignore waiver filter (waiver.go) that makes every suppression
// carry an auditable justification. Every analyzer is a local rule: it
// sees one package at a time and nothing flows between passes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in output, CLI flags, and
	// //batlint:ignore waivers. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description shown by `batlint -list`.
	Doc string
	// Run inspects one package via pass and reports findings through
	// pass.Report/Reportf. Returning an error aborts the whole run (use it
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Set by the runner.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportRangef reports a formatted diagnostic spanning [pos, end); the end
// position widens the window a //batlint:ignore waiver can sit on when
// the flagged expression spans multiple lines.
func (p *Pass) ReportRangef(pos, end token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, End: end, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding inside a package.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional: end of the flagged expression
	Message string
}

// Finding is a diagnostic resolved to a concrete file position and tagged
// with the analyzer that produced it — the unit batlint prints and the
// waiver filter suppresses.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// EndLine is the last line of the flagged expression (== Pos.Line for
	// single-line findings); a waiver anywhere in [Pos.Line-1, EndLine]
	// covers the finding.
	EndLine int
	// Waived marks a finding suppressed by a //batlint:ignore directive.
	// Run returns waived findings too (for -json and audits); callers
	// gate exit status on the unwaived ones.
	Waived bool
	// WaiverReason is the justification of the covering waiver.
	WaiverReason string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}
