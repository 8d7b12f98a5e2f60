package analyzers

import (
	"go/ast"
	"go/types"
	"strconv"

	"libbat/internal/analyzers/analysis"
)

// determinismPkgs is the byte-identity domain: the BAT build pipeline, the
// radix sort underneath it and the parallel loops that schedule both, whose
// output TestBuildDeterminism requires to be identical for any worker count.
var determinismPkgs = []string{"bat", "radix", "par"}

// Determinism protects that property at the source level: inside the build
// pipeline it forbids wall-clock reads (time.Now, time.Since), the
// math/rand import (seeded or not, its stream depends on call interleaving
// across workers), and map iteration — Go randomizes map order, so any map
// range feeding an output buffer produces run-dependent bytes. The one
// tolerated map-range shape is the canonical sorted-keys idiom: a loop
// whose body only collects keys into a slice that a sort.*/slices.* call
// subsequently orders.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "the BAT build pipeline and radix sort must be bit-deterministic: no time.Now/time.Since, " +
		"no math/rand, no map-order iteration (collect-then-sort is allowed)",
	Run: runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path(), determinismPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in the deterministic build pipeline: its stream depends on call interleaving across workers", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n)
				if fn != nil && pkgPathOf(fn) == "time" && (fn.Name() == "Now" || fn.Name() == "Since") {
					pass.Reportf(n.Pos(),
						"time.%s in the deterministic build pipeline: route timing through the obs collector outside bat/radix/par", fn.Name())
				}
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRange reports a range over a map unless it is the collect-keys-
// then-sort idiom.
func checkMapRange(pass *analysis.Pass, file *ast.File, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if slice, ok := keyCollectionTarget(rs); ok && sortedLater(pass, file, rs, slice) {
		return
	}
	pass.Reportf(rs.Pos(),
		"map iteration in the deterministic build pipeline: Go randomizes map order, so bytes derived "+
			"from it differ run to run; iterate sorted keys instead (collect into a slice, sort, range the slice)")
}

// keyCollectionTarget matches a body of exactly `s = append(s, k)` where k
// is the range key, returning s's name.
func keyCollectionTarget(rs *ast.RangeStmt) (string, bool) {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || rs.Value != nil || len(rs.Body.List) != 1 {
		return "", false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return "", false
	}
	lhs, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return "", false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return "", false
	}
	arg0, ok0 := call.Args[0].(*ast.Ident)
	arg1, ok1 := call.Args[1].(*ast.Ident)
	if !ok0 || !ok1 || arg0.Name != lhs.Name || arg1.Name != key.Name {
		return "", false
	}
	return lhs.Name, true
}

// sortedLater reports whether a sort.* or slices.* call mentioning slice
// appears after the range statement in the same file (the enclosing
// function necessarily contains it).
func sortedLater(pass *analysis.Pass, file *ast.File, rs *ast.RangeStmt, slice string) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if p := pkgPathOf(fn); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && id.Name == slice {
				found = true
			}
		}
		return true
	})
	return found
}
