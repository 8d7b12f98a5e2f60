package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"libbat/internal/analyzers/analysis"
)

// UintCast flags unchecked narrowing conversions of untrusted decoded
// integers in the on-disk format packages: a non-constant uint64 (the type
// every length, count, and offset field decodes to) converted to a signed
// or narrower integer type without a preceding bounds comparison on the
// same expression inside the same top-level function. This is the exact
// shape of the offset-wrap panic the bat reader fuzzer found (a crafted
// treelet offset converted with int64(off) went negative and ReadAt
// faulted): the fix there — compare the uint64 against the file size
// before converting — is what the guard heuristic looks for.
//
// The guard detection is syntactic and local — any <, >, <=, >= comparison
// whose operand prints identically to the converted expression, earlier in
// the same function — plus one deliberate cross-function rule: a struct
// field compared in a Decode* function (bat.DecodeLeaf, meta.Decode) is
// trusted everywhere in the package. Decode is where the format packages validate
// untrusted header fields against the file size before storing them, so a
// uint64 field bounds-checked there would be safe to narrow at query time
// without a waiver. (No field leans on the rule today: the BAT reader
// derives its particle count and treelet offsets as int64 sums of u32
// fields, and the .batm reader bounds its counts as locals.) Fields checked
// anywhere else, or never, still require a local guard or a
// //batlint:ignore uintcast waiver — as does a bound established in a
// helper, or an encoder-side value that never held decoded input: the rule
// does not follow values across functions (DESIGN.md §9 records the trade;
// the format fuzzers are the dynamic net under it).
var UintCast = &analysis.Analyzer{
	Name: "uintcast",
	Doc: "in format packages (binfmt, bat, meta, particles, checksum, core), converting a non-constant uint64 to a " +
		"signed or narrower integer requires a preceding bounds check on the same expression in the " +
		"same function, or on the same struct field in a Decode* function",
	Run: runUintCast,
}

func runUintCast(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path(), formatPkgs...) {
		return nil
	}
	checked := decodeCheckedFields(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			guards := collectGuards(fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				to, ok := narrowingUint64Conversion(pass.TypesInfo, call)
				if !ok {
					return true
				}
				arg := ast.Unparen(call.Args[0])
				src := types.ExprString(arg)
				if guardedBefore(guards, src, call.Pos()) {
					return true
				}
				if fld := fieldObject(pass.TypesInfo, arg); fld != nil && checked[fld] {
					return true // bounded against the file size in Decode
				}
				pass.Reportf(call.Pos(),
					"unchecked conversion %s(%s) of untrusted uint64: values above %s's range wrap; "+
						"bound it first (offset-wrap panic shape) or waive with //batlint:ignore uintcast <why>",
					to, src, to)
				return true
			})
		}
	}
	return nil
}

// decodeCheckedFields collects every struct field that appears as a bare
// operand of a relational comparison inside a Decode* function
// (bat.DecodeLeaf, meta.Decode) in this package. Those comparisons are the format layer's
// validation of untrusted on-disk values (typically against the file
// size), so the fields they bound are trusted for narrowing conversions
// package-wide.
func decodeCheckedFields(pass *analysis.Pass) map[types.Object]bool {
	checked := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !strings.HasPrefix(fn.Name.Name, "Decode") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if b, ok := n.(*ast.BinaryExpr); ok && isRelational(b.Op) {
					for _, operand := range [2]ast.Expr{b.X, b.Y} {
						if fld := fieldObject(pass.TypesInfo, ast.Unparen(operand)); fld != nil {
							checked[fld] = true
						}
					}
				}
				return true
			})
		}
	}
	return checked
}

// isRelational reports whether op is one of <, >, <=, >= — the comparisons
// that count as a bounds check.
func isRelational(op token.Token) bool {
	return op == token.LSS || op == token.GTR || op == token.LEQ || op == token.GEQ
}

// fieldObject resolves expr to the struct field it selects, or nil when
// expr is not a plain field selector.
func fieldObject(info *types.Info, expr ast.Expr) types.Object {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj()
}

// narrowingUint64Conversion reports whether call converts a non-constant
// uint64 expression to an integer type that cannot represent every uint64,
// returning the destination type name.
func narrowingUint64Conversion(info *types.Info, call *ast.CallExpr) (to string, ok bool) {
	tv, isConv := info.Types[call.Fun]
	if !isConv || !tv.IsType() {
		return "", false
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || dst.Info()&types.IsInteger == 0 {
		return "", false
	}
	switch dst.Kind() {
	case types.Uint64, types.Uintptr:
		return "", false // lossless (uintptr narrowing is the mmap layer's concern)
	}
	av := info.Types[call.Args[0]]
	if av.Value != nil {
		return "", false // constants are checked by the compiler
	}
	src, ok := av.Type.Underlying().(*types.Basic)
	if !ok || src.Kind() != types.Uint64 {
		return "", false
	}
	return dst.String(), true
}

// guard is one relational comparison: the printed form of each operand and
// where it occurs.
type guard struct {
	operands [2]string
	pos      token.Pos
}

// collectGuards gathers every <, >, <=, >= comparison in body.
func collectGuards(body *ast.BlockStmt) []guard {
	var gs []guard
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && isRelational(b.Op) {
			gs = append(gs, guard{
				operands: [2]string{
					types.ExprString(ast.Unparen(b.X)),
					types.ExprString(ast.Unparen(b.Y)),
				},
				pos: b.Pos(),
			})
		}
		return true
	})
	return gs
}

// guardedBefore reports whether some comparison mentioning src (by printed
// form) occurs before pos.
func guardedBefore(gs []guard, src string, pos token.Pos) bool {
	for _, g := range gs {
		if g.pos < pos && (g.operands[0] == src || g.operands[1] == src) {
			return true
		}
	}
	return false
}
