package analyzers

import (
	"go/ast"

	"libbat/internal/analyzers/analysis"
)

// CtxSleep flags bare time.Sleep calls in non-test code. The rule: a wait
// on a path that has a context must end when the context does. A
// time.Sleep is invisible to cancellation, so a backoff or injected-latency
// delay written with it keeps a canceled query (and whatever goroutine,
// lock, or singleflight slot it holds) alive for the full duration.
// pfs.SleepContext sleeps the same duration but returns early with
// ctx.Err() when the caller gives up. Sites that genuinely must not be interrupted carry a
// //batlint:ignore ctxsleep waiver saying why.
var CtxSleep = &analysis.Analyzer{
	Name: "ctxsleep",
	Doc: "non-test code must not call bare time.Sleep: it ignores cancellation; " +
		"use pfs.SleepContext(ctx, d), or waive with //batlint:ignore ctxsleep <why>",
	Run: runCtxSleep,
}

func runCtxSleep(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "Sleep" || pkgPathOf(fn) != "time" {
				return true
			}
			pass.Reportf(call.Pos(),
				"bare time.Sleep ignores cancellation and pins the caller for the full duration; use pfs.SleepContext(ctx, d) or waive with //batlint:ignore ctxsleep <why>")
			return true
		})
	}
	return nil
}
