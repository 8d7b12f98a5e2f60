package analyzers

import (
	"go/ast"
	"go/types"

	"libbat/internal/analyzers/analysis"
)

// CtxFlow guards the PR 8 cancellation contract the way uintcast guards
// the format contract: a function that names a context.Context parameter
// must pass it on rather than drop it or substitute
// context.Background()/context.TODO(). Either failure mode detaches the
// work from the caller that can cancel it: the query is gone, but its
// goroutine still holds the singleflight slot through the full stall.
//
// Both rules are local to one function and know nothing about which
// callees block. A function that has no use for the context an interface
// forces on it writes the parameter as `_`, so the signature says where
// cancellation ends. The deliberate ctx-free compatibility wrappers
// (Query, ReadQuery, ...) take no context themselves, so delegating to
// context.Background() inside them is out of scope by construction.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "a function with a named context.Context parameter must use it: passing " +
		"context.Background()/TODO() to a callee instead, or never referencing the parameter " +
		"(write _ if that is intended), detaches cancellation; " +
		"waive with //batlint:ignore ctxflow <why>",
	Run: runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if ctxParam := contextParam(pass.TypesInfo, fn); ctxParam != nil {
				checkCtxFlow(pass, fn, ctxParam)
			}
		}
	}
	return nil
}

// contextParam returns the declared context.Context parameter object of
// fn, or nil. Blank (`_ context.Context`) parameters return nil: the
// signature already says, visibly, that cancellation ends here.
func contextParam(info *types.Info, fn *ast.FuncDecl) *types.Var {
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			v, ok := info.Defs[name].(*types.Var)
			if ok && isContextType(v.Type()) {
				return v
			}
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func checkCtxFlow(pass *analysis.Pass, fn *ast.FuncDecl, ctxParam *types.Var) {
	ctxUsed := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxParam {
			ctxUsed = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Substitution: a fresh root context handed to a callee while the
		// caller holds a real one.
		for _, arg := range call.Args {
			if name := backgroundish(pass.TypesInfo, arg); name != "" {
				pass.ReportRangef(arg.Pos(), arg.End(),
					"%s receives a context but hands context.%s to %s: the caller's "+
						"cancellation never reaches the callee; pass (or derive from) the caller's "+
						"context, or waive with //batlint:ignore ctxflow <why>",
					fn.Name.Name, name, types.ExprString(call.Fun))
			}
		}
		return true
	})
	// Dropping: the context is never consulted.
	if !ctxUsed {
		pass.ReportRangef(fn.Name.Pos(), fn.Name.End(),
			"%s receives a context it never uses: cancellation is silently dropped; thread "+
				"the context into the calls that wait, name the parameter _ if it has none, or "+
				"waive with //batlint:ignore ctxflow <why>",
			fn.Name.Name)
	}
}

// backgroundish returns "Background" or "TODO" when arg is a direct
// context.Background()/context.TODO() call, else "".
func backgroundish(info *types.Info, arg ast.Expr) string {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || pkgPathOf(fn) != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}
