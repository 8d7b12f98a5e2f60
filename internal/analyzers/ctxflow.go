package analyzers

import (
	"go/ast"
	"go/types"

	"libbat/internal/analyzers/analysis"
)

// ctxFlowExempt lists path elements where the rule would fight the
// design: fabric's simulated communicator is the machinery that *delivers*
// cancellation as error replies, so its internals legitimately keep
// polling with their own contexts (the same reasoning as ctxsleep's
// exemption).
var ctxFlowExempt = []string{"fabric"}

// CtxFlow guards the PR 8 cancellation contract the way uintcast guards
// the format contract: a function that accepts a context.Context must
// thread it into its blocking callees — pfs/fabric I/O, cache loads, and
// anything that transitively reaches them — rather than dropping it or
// substituting context.Background()/context.TODO(). Either failure mode
// detaches the work from the caller that can cancel it: the query is
// gone, but its goroutine still holds the singleflight slot through the
// full stall.
//
// "Blocking" comes from the interprocedural summaries (analysis.Program):
// a callee is blocking when it, or anything it transitively calls, does
// pfs/fabric I/O or a bare time.Sleep — so cache and reader
// helpers that merely wrap storage reads are recognized without being
// listed. The deliberate ctx-free compatibility wrappers (Query,
// ReadQuery, ...) take no context themselves, so delegating to
// context.Background() inside them is out of scope by construction.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "a function receiving a context.Context must thread it into blocking callees " +
		"(pfs/fabric/cache ops, transitively): passing context.Background()/TODO() instead, or " +
		"never using the context while the body blocks, detaches cancellation; " +
		"waive with //batlint:ignore ctxflow <why>",
	Run: runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) error {
	if inScope(pass.Pkg.Path(), ctxFlowExempt...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctxParam := contextParam(pass.TypesInfo, fn)
			if ctxParam == nil {
				continue
			}
			checkCtxFlow(pass, fn, ctxParam)
		}
	}
	return nil
}

// contextParam returns the declared context.Context parameter object of
// fn, or nil. Blank (`_ context.Context`) parameters return nil: the
// signature already says, visibly, that cancellation ends here.
func contextParam(info *types.Info, fn *ast.FuncDecl) *types.Var {
	if fn.Type.Params == nil {
		return nil
	}
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
	sawBlocking := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxParam {
			ctxUsed = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		blocking := calleeBlocking(pass, callee)
		if blocking {
			sawBlocking = true
		}
		// Substitution: a fresh root context handed to a blocking callee
		// while the caller holds a real one.
		if blocking {
			sig := calleeSig(callee)
			for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
				if !isContextType(sig.Params().At(i).Type()) {
					continue
				}
				arg := call.Args[i]
				if name := backgroundish(pass.TypesInfo, arg); name != "" {
					pass.ReportRangef(arg.Pos(), arg.End(),
						"%s receives a context but hands context.%s to blocking %s: the caller's "+
							"cancellation never reaches the wait; pass (or derive from) the caller's "+
							"context, or waive with //batlint:ignore ctxflow <why>",
						fn.Name.Name, name, callee.Name())
				}
			}
		}
		return true
	})
	// Dropping: the context is never consulted while the body blocks.
	if !ctxUsed && sawBlocking {
		pass.ReportRangef(fn.Name.Pos(), fn.Name.End(),
			"%s receives a context it never uses, yet its body blocks (pfs/fabric/cache ops): "+
				"cancellation is silently dropped; thread the context into the blocking calls, or "+
				"waive with //batlint:ignore ctxflow <why>",
			fn.Name.Name)
	}
}

// calleeBlocking reports whether a call to fn can block: base blocking
// packages (pfs, fabric, time.Sleep) or any function whose
// interprocedural summary says it transitively reaches one.
func calleeBlocking(pass *analysis.Pass, fn *types.Func) bool {
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		if path == "time" && fn.Name() == "Sleep" {
			return true
		}
		if inScope(path, "pfs", "fabric") {
			return true
		}
	}
	sum, ok := pass.Prog.SummaryOf(fn)
	return ok && sum.Blocking
}

// calleeSig returns fn's signature. (The go1.23 (*types.Func).Signature
// accessor is off-limits while the module declares go 1.22.)
func calleeSig(fn *types.Func) *types.Signature {
	return fn.Type().(*types.Signature)
}

// backgroundish returns "Background" or "TODO" when arg is a direct
// context.Background()/context.TODO() call, else "".
func backgroundish(info *types.Info, arg ast.Expr) string {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}
