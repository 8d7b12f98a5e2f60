// Package analyzers holds the repo's custom static-analysis suite: seven
// checks that mechanically enforce invariants the pipeline otherwise relies
// on by convention — little-endian on-disk serialization, uint64s bounded
// before they are narrowed in the format packages, a clock/rand/map-order-
// free BAT build, consumed fabric/pfs errors, paired obs spans,
// cancellation-aware sleeps (pfs.SleepContext over time.Sleep), and named
// contexts that are used rather than dropped or replaced. Each check is a
// local rule over one package. cmd/batlint drives the suite; DESIGN.md §9
// maps each analyzer to the bug class that motivated it and audits what
// each has found. Findings are suppressed only by an auditable
// //batlint:ignore <analyzer> <justification> comment.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"libbat/internal/analyzers/analysis"
)

// All returns the full suite in a stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Endian, UintCast, Determinism, FabricErr, SpanPair, CtxSleep, CtxFlow}
}

// inScope reports whether a package import path contains any of elems as a
// '/'-separated path element. Matching on elements (not substrings) lets
// one rule cover both the real tree (libbat/internal/bat) and analysistest
// fixtures (uintcast/bat) without hard-coding the module path.
func inScope(path string, elems ...string) bool {
	for _, seg := range strings.Split(path, "/") {
		for _, e := range elems {
			if seg == e {
				return true
			}
		}
	}
	return false
}

// calleeFunc resolves the static callee of a call, or nil for indirect
// calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package an object belongs to
// ("" for builtins and objects in the universe scope).
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
