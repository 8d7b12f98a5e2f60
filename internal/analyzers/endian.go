package analyzers

import (
	"go/ast"
	"go/types"

	"libbat/internal/analyzers/analysis"
)

// formatPkgs are the format packages: the on-disk formats and core, whose
// control messages are peer bytes decoded like file bytes. Every byte they
// serialize or parse is little-endian by contract (DESIGN.md §9), so
// readers on any host decode the same layout.
var formatPkgs = []string{"binfmt", "bat", "meta", "particles", "checksum", "core"}

// Endian enforces that contract mechanically: inside a format package it
// forbids binary.BigEndian and binary.NativeEndian outright, requires the
// order argument of binary.Write/binary.Read to be the literal
// binary.LittleEndian selector, and flags declarations of
// binary.ByteOrder-typed variables, fields, or parameters (an indirection
// that would let call sites vary the order at runtime).
var Endian = &analysis.Analyzer{
	Name: "endian",
	Doc: "format packages (" + "binfmt, bat, meta, particles, checksum, core" + ") must serialize " +
		"exclusively via binary.LittleEndian: no BigEndian/NativeEndian, no variable byte order",
	Run: runEndian,
}

func runEndian(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path(), formatPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if name, ok := binaryPkgObj(pass.TypesInfo, n); ok {
					switch name {
					case "BigEndian", "NativeEndian":
						pass.Reportf(n.Pos(),
							"binary.%s in an on-disk format package: the layout contract is little-endian, use binary.LittleEndian", name)
					case "ByteOrder":
						pass.Reportf(n.Pos(),
							"binary.ByteOrder declaration in an on-disk format package permits a variable byte order: serialize via binary.LittleEndian directly")
					}
				}
			case *ast.CallExpr:
				name, ok := binaryCallee(pass.TypesInfo, n)
				if !ok || (name != "Write" && name != "Read") {
					return true
				}
				// A direct binary.BigEndian/NativeEndian argument is already
				// reported by the selector check above; this catches orders
				// routed through variables, parameters, or fields.
				if len(n.Args) < 2 || !isDirectOrderSel(pass.TypesInfo, n.Args[1]) {
					pass.Reportf(n.Pos(),
						"binary.%s with a byte order that is not the literal binary.LittleEndian: the on-disk layout contract forbids variable orders", name)
				}
			}
			return true
		})
	}
	return nil
}

// binaryPkgObj reports the name of the encoding/binary object sel refers
// to, if any. Both value uses (binary.BigEndian) and type uses
// (binary.ByteOrder) resolve through Uses.
func binaryPkgObj(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	obj := info.Uses[sel.Sel]
	if obj == nil || pkgPathOf(obj) != "encoding/binary" {
		return "", false
	}
	return obj.Name(), true
}

// binaryCallee reports the encoding/binary function a call invokes, if any.
func binaryCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || pkgPathOf(fn) != "encoding/binary" {
		return "", false
	}
	return fn.Name(), true
}

// isDirectOrderSel reports whether e is a literal binary.<Order> selector
// (as opposed to a variable holding a ByteOrder).
func isDirectOrderSel(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name, ok := binaryPkgObj(info, sel)
	return ok && (name == "LittleEndian" || name == "BigEndian" || name == "NativeEndian")
}
