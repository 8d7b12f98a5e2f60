package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the per-function half of the interprocedural layer: a
// lightweight abstract interpreter that walks one function body in source
// order and produces a Summary — which results carry decoded-input taint,
// which parameters flow into narrowing sinks unguarded, which parameters
// the function validates, whether the function (transitively) blocks.
// callgraph.go drives it bottom-up over the call-graph SCCs to a fixpoint.
//
// The value domain is deliberately small: a taintMask per value, where bit
// 0 means "derived from untrusted decoded bytes" (binary.LittleEndian
// reads, varints, ReadAt-filled buffers, tainted struct fields, callees
// whose summaries say so) and bit i+1 means "depends on parameter i"
// (receiver first for methods). Parameter bits are what make one walk
// serve both roles: they turn into SinkParams ("callers must bound this
// argument") and Flows ("taint passes through") instead of findings.
//
// Sanitizers kill a mask: a dominating <,>,<=,>= comparison mentioning the
// value's printed form (the same positional heuristic the original local
// analyzer used), a call passing the value to a parameter the callee's
// summary marks validated, the builtin min with a bounded operand, and
// &/% against a constant. The approximations — printed-form matching,
// position as dominance, no branch sensitivity — are documented in
// DESIGN.md; they are exactly the original local heuristics, widened
// across calls.

// taintMask tracks provenance of one value: bit 0 = decoded-input taint,
// bit i+1 = depends on parameter i (receiver counts as parameter 0 of a
// method).
type taintMask uint64

const sourceBit taintMask = 1

// paramBit returns the mask bit for parameter index i (0-based, receiver
// first). Functions with more than 62 parameters lose tracking for the
// tail, which only costs precision.
func paramBit(i int) taintMask {
	if i < 0 || i >= 62 {
		return 0
	}
	return 1 << (uint(i) + 1)
}

// Flow records that taint entering at parameter Param leaves through
// result Result unguarded.
type Flow struct {
	Param  int `json:"p"`
	Result int `json:"r"`
}

// Summary is one function's interprocedural contract, computed bottom-up
// over call-graph SCCs (callgraph.go) and, in go vet mode, serialized
// through .vetx facts files so cross-package information survives the
// unitchecker protocol.
type Summary struct {
	// TaintedResults: bit i set when result i may carry decoded-input
	// taint with no dominating bound.
	TaintedResults uint32 `json:"t,omitempty"`
	// SinkParams: bit i set when parameter i reaches a narrowing
	// conversion (or a callee's sink parameter) with no dominating bound;
	// callers must bound the argument or the taint is live.
	SinkParams uint32 `json:"s,omitempty"`
	// ValidatedParams: bit i set when the function relationally bounds
	// parameter i (directly or by passing it to another validator) — the
	// validateX pattern. A call passing v to a validated parameter
	// sanitizes v at the call site.
	ValidatedParams uint32 `json:"v,omitempty"`
	// Flows: parameter→result taint passthroughs.
	Flows []Flow `json:"f,omitempty"`
	// Blocking: the function (transitively) performs a blocking
	// operation — pfs/fabric I/O or a bare time.Sleep. The ctxflow
	// analyzer uses it to decide which callees must receive a context.
	Blocking bool `json:"b,omitempty"`
}

// mergeValidators unions the phase-1 (monotone) half of next into s,
// reporting whether anything changed.
func (s *Summary) mergeValidators(next Summary) bool {
	changed := false
	if next.ValidatedParams&^s.ValidatedParams != 0 {
		s.ValidatedParams |= next.ValidatedParams
		changed = true
	}
	if next.Blocking && !s.Blocking {
		s.Blocking = true
		changed = true
	}
	return changed
}

// mergeTaint unions the phase-2 half of next into s, reporting whether
// anything changed. Union-only merging keeps the fixpoint monotone.
func (s *Summary) mergeTaint(next Summary) bool {
	changed := false
	if next.TaintedResults&^s.TaintedResults != 0 {
		s.TaintedResults |= next.TaintedResults
		changed = true
	}
	if next.SinkParams&^s.SinkParams != 0 {
		s.SinkParams |= next.SinkParams
		changed = true
	}
	for _, f := range next.Flows {
		if !s.hasFlow(f) {
			s.Flows = append(s.Flows, f)
			changed = true
		}
	}
	return changed
}

func (s *Summary) hasFlow(f Flow) bool {
	for _, g := range s.Flows {
		if g == f {
			return true
		}
	}
	return false
}

// EventKind distinguishes the two taint-sink shapes the engine records.
type EventKind int

const (
	// EventNarrow: a decoded-input-tainted uint64 narrowed with no
	// dominating bound — the offset-wrap shape.
	EventNarrow EventKind = iota
	// EventCallSink: a decoded-input-tainted value passed, unbounded, to
	// a parameter the callee narrows without a guard.
	EventCallSink
)

// TaintEvent is one unsanitized source→sink flow, recorded during the
// final (post-fixpoint) walk for analyzers to report.
type TaintEvent struct {
	Kind   EventKind
	Pos    token.Pos
	End    token.Pos
	Expr   string // printed form of the tainted value
	To     string // EventNarrow: destination type
	Callee string // EventCallSink: callee name
	Param  string // EventCallSink: the sink parameter's name
}

// sigOf returns fn's signature. (The go1.23 (*types.Func).Signature
// accessor is off-limits while the module declares go 1.22.)
func sigOf(fn *types.Func) *types.Signature {
	return fn.Type().(*types.Signature)
}

// funcKey is the cross-object-space identity of a function: the same
// function type-checked from source and re-imported from export data
// yields different *types.Func objects but the same FullName.
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	return fn.Origin().FullName()
}

// fieldKeyOf builds the identity of a struct field as seen through a
// named type: "pkgpath.Type.field". Keying by the type at the use site
// (rather than the field's declaring struct) mis-files promoted fields
// from embedded structs, which costs precision, never findings.
func fieldKeyOf(recv types.Type, field string) string {
	t := recv
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

// sanitizeEvt marks the printed form of a value as bounded from pos on.
type sanitizeEvt struct {
	form string
	pos  token.Pos
}

// flowWalk interprets one function body.
type flowWalk struct {
	prog   *Program
	pkg    *Package
	decl   *ast.FuncDecl
	params []*types.Var
	vars   map[string]taintMask
	sans   []sanitizeEvt
	tuples map[*ast.CallExpr][]taintMask
	sum    Summary // candidate summary this walk computes
	record bool    // final pass: emit TaintEvents
	// changedFields reports back that a new global field taint was found.
	changedFields bool
}

// walkFunc runs one abstract interpretation of pf's body and returns the
// candidate summary (merged by the caller) plus whether global field
// state changed.
func (p *Program) walkFunc(pf *progFunc, record bool) (Summary, bool) {
	w := &flowWalk{
		prog:   p,
		pkg:    pf.pkg,
		decl:   pf.decl,
		vars:   map[string]taintMask{},
		tuples: map[*ast.CallExpr][]taintMask{},
		record: record,
	}
	sig := sigOf(pf.fn)
	if r := sig.Recv(); r != nil {
		w.params = append(w.params, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		w.params = append(w.params, sig.Params().At(i))
	}
	w.stmt(pf.decl.Body)
	return w.sum, w.changedFields
}

func (w *flowWalk) paramIndex(v *types.Var) int {
	for i, p := range w.params {
		if p == v {
			return i
		}
	}
	return -1
}

func (w *flowWalk) san(form string, pos token.Pos) {
	w.sans = append(w.sans, sanitizeEvt{form: form, pos: pos})
}

func (w *flowWalk) sanitizedBefore(form string, pos token.Pos) bool {
	for _, s := range w.sans {
		if s.pos < pos && s.form == form {
			return true
		}
	}
	return false
}

// validateIfParam credits a relational guard (or validator call) on a bare
// parameter to the function's ValidatedParams.
func (w *flowWalk) validateIfParam(e ast.Expr) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	obj := w.pkg.Info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if i := w.paramIndex(v); i >= 0 && i < 32 {
		w.sum.ValidatedParams |= 1 << uint(i)
	}
}

func (w *flowWalk) identMask(id *ast.Ident) taintMask {
	if id.Name == "_" {
		return 0
	}
	if m, ok := w.vars[id.Name]; ok {
		return m
	}
	obj := w.pkg.Info.Uses[id]
	if obj == nil {
		obj = w.pkg.Info.Defs[id]
	}
	if v, ok := obj.(*types.Var); ok {
		if i := w.paramIndex(v); i >= 0 {
			return paramBit(i)
		}
	}
	return 0
}

func (w *flowWalk) isConstExpr(e ast.Expr) bool {
	tv, ok := w.pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// expr computes the taint mask of e, recording guards, sinks, blocking
// calls, and field writes it encounters on the way.
func (w *flowWalk) expr(e ast.Expr) taintMask {
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		return w.identMask(e)
	case *ast.ParenExpr:
		return w.expr(e.X)
	case *ast.BasicLit:
		return 0
	case *ast.SelectorExpr:
		if w.isConstExpr(e) {
			return 0
		}
		form := types.ExprString(e)
		if m, ok := w.vars[form]; ok {
			return m // locally (re)assigned, e.g. clamped in place
		}
		m := w.expr(e.X)
		if sel, ok := w.pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			key := fieldKeyOf(sel.Recv(), e.Sel.Name)
			if key != "" && w.prog.taintedFields[key] && !w.prog.checkedFields[key] {
				m |= sourceBit
			}
		}
		return m
	case *ast.StarExpr:
		return w.expr(e.X)
	case *ast.UnaryExpr:
		return w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.Index)
		return w.expr(e.X) // an element of a tainted slice is tainted
	case *ast.IndexListExpr:
		return w.expr(e.X) // generic instantiation
	case *ast.SliceExpr:
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
		return w.expr(e.X)
	case *ast.TypeAssertExpr:
		return w.expr(e.X)
	case *ast.CompositeLit:
		return w.compositeLit(e)
	case *ast.FuncLit:
		w.stmt(e.Body) // shares vars/sanitizers: positional, like the rest
		return 0
	case *ast.BinaryExpr:
		return w.binary(e)
	case *ast.CallExpr:
		return w.call(e)
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		return w.expr(e.Value)
	}
	return 0
}

func (w *flowWalk) binary(e *ast.BinaryExpr) taintMask {
	mx, my := w.expr(e.X), w.expr(e.Y)
	switch e.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		// A relational comparison is the canonical sanitizer: both
		// operands count as bounded from here on (the original local
		// guard heuristic, kept verbatim).
		w.san(types.ExprString(ast.Unparen(e.X)), e.Pos())
		w.san(types.ExprString(ast.Unparen(e.Y)), e.Pos())
		w.validateIfParam(e.X)
		w.validateIfParam(e.Y)
		return 0
	case token.EQL, token.NEQ, token.LAND, token.LOR:
		return 0
	case token.AND, token.REM:
		// x & const and x % const bound the result by the constant.
		if w.isConstExpr(e.X) || w.isConstExpr(e.Y) {
			return 0
		}
	}
	return mx | my
}

func (w *flowWalk) compositeLit(e *ast.CompositeLit) taintMask {
	var m taintMask
	var st *types.Struct
	var named types.Type
	if tv, ok := w.pkg.Info.Types[e]; ok {
		named = tv.Type
		if s, ok := tv.Type.Underlying().(*types.Struct); ok {
			st = s
		}
	}
	for i, el := range e.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			vm := w.expr(kv.Value)
			m |= vm
			if st != nil {
				if id, ok := kv.Key.(*ast.Ident); ok {
					w.fieldWrite(fieldKeyOf(named, id.Name), vm)
				}
			}
			continue
		}
		vm := w.expr(el)
		m |= vm
		if st != nil && i < st.NumFields() {
			w.fieldWrite(fieldKeyOf(named, st.Field(i).Name()), vm)
		}
	}
	return m
}

// fieldWrite records a decoded-input-tainted store into a struct field;
// the global field set feeds the outer fixpoint in callgraph.go.
func (w *flowWalk) fieldWrite(key string, m taintMask) {
	if key == "" || m&sourceBit == 0 {
		return
	}
	if !w.prog.taintedFields[key] {
		w.prog.taintedFields[key] = true
		w.changedFields = true
	}
}

// sourceFuncs maps encoding/binary decode entry points to the taint masks
// of their results.
func binarySourceMasks(name string) ([]taintMask, bool) {
	switch name {
	case "Uint16", "Uint32", "Uint64":
		return []taintMask{sourceBit}, true
	case "Uvarint", "Varint":
		return []taintMask{sourceBit, 0}, true
	case "ReadUvarint", "ReadVarint":
		return []taintMask{sourceBit, 0}, true
	}
	return nil, false
}

// bufferFillers taint the []byte argument they fill with raw input.
// Matching by name covers io.ReaderAt/io.Reader implementations and the
// pfs context-aware wrappers without needing their source.
func bufferFillArg(name string, nargs int) int {
	switch name {
	case "Read", "ReadAt", "ReadAtCtx", "ReadAtContext":
		if nargs >= 1 {
			return 0
		}
	case "ReadFull":
		if nargs >= 2 {
			return 1
		}
	}
	return -1
}

// blockingPkgElems are the path elements whose calls are blocking by
// definition: storage and collective I/O.
var blockingPkgElems = map[string]bool{"pfs": true, "fabric": true}

func calleeIsBaseBlocking(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path == "time" && fn.Name() == "Sleep" {
		return true
	}
	for _, seg := range strings.Split(path, "/") {
		if blockingPkgElems[seg] {
			return true
		}
	}
	return false
}

// staticCallee resolves the called *types.Func, or nil for indirect calls
// and builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := fun.X.(*ast.Ident); ok {
			id = base
		}
	case *ast.IndexListExpr:
		if base, ok := fun.X.(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// argExprFor maps callee parameter index i (receiver first for methods)
// back to the syntactic argument at the call site, or nil.
func argExprFor(call *ast.CallExpr, hasRecv bool, i int) ast.Expr {
	if hasRecv {
		if i == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		i--
	}
	if i < len(call.Args) {
		return call.Args[i]
	}
	if n := len(call.Args); n > 0 {
		return call.Args[n-1] // variadic tail
	}
	return nil
}

func (w *flowWalk) call(call *ast.CallExpr) taintMask {
	// Conversion: the narrowing sink lives here.
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		m := w.expr(call.Args[0])
		if to, _, narrowing := NarrowingFromUint64(w.pkg.Info, call); narrowing {
			return w.narrowSink(call, to, m)
		}
		return m
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pkg.Info.Uses[id].(*types.Builtin); ok {
			return w.builtin(b.Name(), call)
		}
	}
	callee := staticCallee(w.pkg.Info, call)
	hasRecv := callee != nil && sigOf(callee).Recv() != nil

	// Evaluate receiver and arguments in order, collecting masks aligned
	// with the callee's receiver-first parameter indexing.
	var argMasks []taintMask
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		m := w.expr(sel.X)
		if hasRecv {
			argMasks = append(argMasks, m)
		}
	}
	for _, a := range call.Args {
		argMasks = append(argMasks, w.expr(a))
	}
	if callee == nil {
		return 0
	}

	// Decode sources: encoding/binary readers.
	if pkgOf(callee) == "encoding/binary" {
		if masks, ok := binarySourceMasks(callee.Name()); ok {
			w.tuples[call] = masks
			return masks[0]
		}
	}
	// Raw-input fills: r.ReadAt(buf, off) taints buf.
	if ai := bufferFillArg(callee.Name(), len(call.Args)); ai >= 0 {
		arg := call.Args[ai]
		if isByteSlice(w.pkg.Info, arg) {
			form := types.ExprString(ast.Unparen(arg))
			w.vars[form] |= sourceBit
		}
	}

	if calleeIsBaseBlocking(callee) {
		w.sum.Blocking = true
	}
	sum, known := w.prog.summaryByKey(funcKey(callee))
	if known && sum.Blocking {
		w.sum.Blocking = true
	}
	if !known {
		return 0
	}

	// A call into a validator sanitizes the argument from here on and
	// propagates validation to our own bare parameters.
	for i := range argMasks {
		if i < 32 && sum.ValidatedParams&(1<<uint(i)) != 0 {
			if arg := argExprFor(call, hasRecv, i); arg != nil {
				w.san(types.ExprString(ast.Unparen(arg)), call.Pos())
				w.validateIfParam(arg)
			}
		}
	}
	// A call into a sink parameter is a sink for whatever taint the
	// argument carries.
	for i := range argMasks {
		if i < 32 && sum.SinkParams&(1<<uint(i)) != 0 {
			arg := argExprFor(call, hasRecv, i)
			w.callSink(call, callee, hasRecv, i, arg, argMasks[i])
		}
	}
	// Result masks from the callee's summary.
	nres := sigOf(callee).Results().Len()
	masks := make([]taintMask, max(nres, 1))
	for i := 0; i < nres && i < 32; i++ {
		if sum.TaintedResults&(1<<uint(i)) != 0 {
			masks[i] |= sourceBit
		}
	}
	for _, f := range sum.Flows {
		if f.Param < len(argMasks) && f.Result < len(masks) {
			masks[f.Result] |= argMasks[f.Param]
		}
	}
	if nres > 1 {
		w.tuples[call] = masks
	}
	return masks[0]
}

func (w *flowWalk) builtin(name string, call *ast.CallExpr) taintMask {
	var m taintMask
	anyBounded := false
	for _, a := range call.Args {
		am := w.expr(a)
		m |= am
		if am == 0 {
			anyBounded = true
		}
	}
	switch name {
	case "len", "cap":
		return 0
	case "make", "new":
		// A tainted length sizes the container; it does not taint the
		// (zeroed) contents.
		return 0
	case "min":
		// min(x, bounded) clamps x below the bounded operand.
		if anyBounded {
			return 0
		}
	case "append":
		return m
	}
	return m
}

// narrowSink handles a narrowing conversion of value with mask m: report
// decoded-input taint (final pass), promote parameter taint into
// SinkParams, and treat the result as accounted for.
func (w *flowWalk) narrowSink(call *ast.CallExpr, to string, m taintMask) taintMask {
	if m == 0 {
		return 0
	}
	arg := ast.Unparen(call.Args[0])
	form := types.ExprString(arg)
	if w.sanitizedBefore(form, call.Pos()) {
		return 0
	}
	if m&sourceBit != 0 && w.record {
		w.prog.addEvent(w.pkg.Path, TaintEvent{
			Kind: EventNarrow,
			Pos:  call.Pos(),
			End:  call.End(),
			Expr: form,
			To:   to,
		})
	}
	w.promoteSinkParams(m)
	return 0
}

func (w *flowWalk) callSink(call *ast.CallExpr, callee *types.Func, hasRecv bool, i int, arg ast.Expr, m taintMask) {
	if m == 0 || arg == nil {
		return
	}
	form := types.ExprString(ast.Unparen(arg))
	if w.sanitizedBefore(form, call.Pos()) {
		return
	}
	if m&sourceBit != 0 && w.record {
		w.prog.addEvent(w.pkg.Path, TaintEvent{
			Kind:   EventCallSink,
			Pos:    arg.Pos(),
			End:    arg.End(),
			Expr:   form,
			Callee: callee.Name(),
			Param:  paramName(callee, hasRecv, i),
		})
	}
	w.promoteSinkParams(m)
}

func (w *flowWalk) promoteSinkParams(m taintMask) {
	for i := range w.params {
		if i < 32 && m&paramBit(i) != 0 {
			w.sum.SinkParams |= 1 << uint(i)
		}
	}
}

func paramName(fn *types.Func, hasRecv bool, i int) string {
	sig := sigOf(fn)
	if hasRecv {
		if i == 0 {
			if r := sig.Recv(); r != nil && r.Name() != "" {
				return r.Name()
			}
			return "recv"
		}
		i--
	}
	if i < sig.Params().Len() {
		if n := sig.Params().At(i).Name(); n != "" {
			return n
		}
	}
	return "_"
}

func isByteSlice(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

func pkgOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// --- statements ---

func (w *flowWalk) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var m taintMask
					if i < len(vs.Values) {
						m = w.expr(vs.Values[i])
					}
					if name.Name != "_" {
						w.vars[name.Name] = m
					}
				}
			}
		}
	case *ast.ReturnStmt:
		w.ret(s)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Post)
		w.stmt(s.Body)
	case *ast.RangeStmt:
		m := w.expr(s.X)
		if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
			w.vars[id.Name] = 0 // indexes/keys are positions, not payload
		}
		if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
			w.vars[id.Name] = m
		}
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmt(cc.Comm)
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *flowWalk) assign(s *ast.AssignStmt) {
	var masks []taintMask
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		m := w.expr(s.Rhs[0])
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if tm, ok := w.tuples[call]; ok {
				masks = tm
			}
		}
		if masks == nil {
			masks = make([]taintMask, len(s.Lhs))
			for i := range masks {
				masks[i] = m
			}
		}
	} else {
		for _, r := range s.Rhs {
			masks = append(masks, w.expr(r))
		}
	}
	for i, l := range s.Lhs {
		var m taintMask
		if i < len(masks) {
			m = masks[i]
		}
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			// Op-assign (+=, |=, <<=, ...) accumulates.
			m |= w.lhsMask(l)
		}
		w.assignTo(l, m)
	}
}

func (w *flowWalk) lhsMask(l ast.Expr) taintMask {
	return w.expr(l)
}

func (w *flowWalk) assignTo(l ast.Expr, m taintMask) {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name != "_" {
			w.vars[l.Name] = m
		}
	case *ast.SelectorExpr:
		w.expr(l.X)
		form := types.ExprString(l)
		w.vars[form] = m
		if sel, ok := w.pkg.Info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			w.fieldWrite(fieldKeyOf(sel.Recv(), l.Sel.Name), m)
		}
	case *ast.IndexExpr:
		w.expr(l.Index)
		base := ast.Unparen(l.X)
		form := types.ExprString(base)
		w.vars[form] |= m // weak update: one element taints the slice
	case *ast.StarExpr:
		form := types.ExprString(ast.Unparen(l.X))
		w.vars[form] = m
	}
}

func (w *flowWalk) ret(s *ast.ReturnStmt) {
	results := s.Results
	if len(results) == 0 {
		// Bare return: consult the named results.
		if w.decl.Type.Results == nil {
			return
		}
		i := 0
		for _, f := range w.decl.Type.Results.List {
			for _, name := range f.Names {
				m := w.vars[name.Name]
				w.recordResult(i, m, name.Name, s.Pos())
				i++
			}
			if len(f.Names) == 0 {
				i++
			}
		}
		return
	}
	if len(results) == 1 {
		if call, ok := ast.Unparen(results[0]).(*ast.CallExpr); ok {
			m := w.expr(results[0])
			if tm, ok := w.tuples[call]; ok {
				for i, rm := range tm {
					w.recordResult(i, rm, types.ExprString(ast.Unparen(results[0])), s.Pos())
				}
				return
			}
			w.recordResult(0, m, types.ExprString(ast.Unparen(results[0])), s.Pos())
			return
		}
	}
	for i, r := range results {
		m := w.expr(r)
		w.recordResult(i, m, types.ExprString(ast.Unparen(r)), s.Pos())
	}
}

func (w *flowWalk) recordResult(i int, m taintMask, form string, pos token.Pos) {
	if i >= 32 || m == 0 {
		return
	}
	if w.sanitizedBefore(form, pos) {
		return
	}
	if m&sourceBit != 0 {
		w.sum.TaintedResults |= 1 << uint(i)
	}
	for pi := range w.params {
		if m&paramBit(pi) != 0 {
			f := Flow{Param: pi, Result: i}
			if !w.sum.hasFlow(f) {
				w.sum.Flows = append(w.sum.Flows, f)
			}
		}
	}
}
