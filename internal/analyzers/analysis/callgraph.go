package analysis

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file drives summary.go whole-program: it indexes every function
// with source in the loaded packages, builds the static call graph,
// condenses it with Tarjan's algorithm, and computes summaries bottom-up
// (callees before callers), iterating each SCC — and, because struct-field
// taint feeds back outside the call ordering, the whole schedule — to a
// fixpoint. The computation is stratified so union-only merging stays
// monotone: phase 1 grows ValidatedParams and Blocking (sanitizers and
// blocking only accumulate); phase 2, with sanitizers frozen, grows
// TaintedResults / SinkParams / Flows and the tainted-field set. A final
// recording walk emits the surviving source→sink TaintEvents analyzers
// report.

// progFunc is one function with source available for summarization.
type progFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
	fn   *types.Func
	key  string
}

// Program is the interprocedural view over one batch of packages: every
// summarizable function, the call graph among them, the summaries at
// fixpoint (own plus any imported facts), global field-taint state, and
// the recorded taint events per package.
type Program struct {
	funcs         map[string]*progFunc
	summaries     map[string]*Summary
	taintedFields map[string]bool
	checkedFields map[string]bool
	events        map[string][]TaintEvent // package path -> events
}

// Facts is the serialized cross-package state batlint's go vet mode
// writes to (and reads from) .vetx files, so summaries survive the
// unitchecker protocol's one-unit-at-a-time package loading. Imported
// facts are re-exported, so a unit's .vetx carries its transitive view.
type Facts struct {
	Funcs         map[string]Summary `json:"funcs,omitempty"`
	TaintedFields []string           `json:"tainted_fields,omitempty"`
	CheckedFields []string           `json:"checked_fields,omitempty"`
}

// BuildProgram indexes pkgs, seeds state from imported facts (nil is
// fine), and runs the SCC fixpoint plus the recording pass.
func BuildProgram(pkgs []*Package, imported *Facts) *Program {
	p := &Program{
		funcs:         map[string]*progFunc{},
		summaries:     map[string]*Summary{},
		taintedFields: map[string]bool{},
		checkedFields: map[string]bool{},
		events:        map[string][]TaintEvent{},
	}
	if imported != nil {
		for k, s := range imported.Funcs {
			cp := s
			p.summaries[k] = &cp
		}
		for _, f := range imported.TaintedFields {
			p.taintedFields[f] = true
		}
		for _, f := range imported.CheckedFields {
			p.checkedFields[f] = true
		}
	}
	var order []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(fn)
				p.funcs[key] = &progFunc{pkg: pkg, decl: fd, fn: fn, key: key}
				order = append(order, key)
			}
		}
	}
	sort.Strings(order)

	p.collectCheckedFields(pkgs)
	sccs := p.sccOrder(order)

	// Phase 1: validators and blocking (monotone on their own).
	p.fixpoint(sccs, func(s *Summary, next Summary) bool { return s.mergeValidators(next) })
	// Phase 2: taint, sinks, and flows, with sanitizers frozen.
	p.fixpoint(sccs, func(s *Summary, next Summary) bool { return s.mergeTaint(next) })

	// Recording pass: emit the surviving source->sink events.
	for _, key := range order {
		p.walkFunc(p.funcs[key], true)
	}
	for path := range p.events {
		evs := p.events[path]
		sort.Slice(evs, func(i, j int) bool { return evs[i].Pos < evs[j].Pos })
	}
	return p
}

// fixpoint runs the summarizer bottom-up over the SCC schedule until no
// summary and no global field state changes. merge is the phase's
// union-only merge step.
func (p *Program) fixpoint(sccs [][]string, merge func(*Summary, Summary) bool) {
	for {
		changed := false
		for _, scc := range sccs {
			for {
				sccChanged := false
				for _, key := range scc {
					next, fieldsChanged := p.walkFunc(p.funcs[key], false)
					if fieldsChanged {
						sccChanged = true
					}
					s := p.summaries[key]
					if s == nil {
						s = &Summary{}
						p.summaries[key] = s
					}
					if merge(s, next) {
						sccChanged = true
					}
				}
				if !sccChanged {
					break
				}
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// collectCheckedFields finds every struct field relationally compared
// inside a Decode*-named function: the format layer's validation point.
// Fields bounded there are trusted for narrowing program-wide — the one
// name-based trust rule carried over from the original local analyzer.
func (p *Program) collectCheckedFields(pkgs []*Package) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Decode") {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					b, ok := n.(*ast.BinaryExpr)
					if !ok {
						return true
					}
					switch b.Op {
					case token.LSS, token.GTR, token.LEQ, token.GEQ:
						for _, operand := range [2]ast.Expr{b.X, b.Y} {
							sel, ok := ast.Unparen(operand).(*ast.SelectorExpr)
							if !ok {
								continue
							}
							s, ok := pkg.Info.Selections[sel]
							if !ok || s.Kind() != types.FieldVal {
								continue
							}
							if key := fieldKeyOf(s.Recv(), sel.Sel.Name); key != "" {
								p.checkedFields[key] = true
							}
						}
					}
					return true
				})
			}
		}
	}
}

// sccOrder builds the call graph restricted to in-program functions and
// returns its strongly connected components in bottom-up (callees first)
// order via Tarjan's algorithm.
func (p *Program) sccOrder(order []string) [][]string {
	edges := map[string][]string{}
	for _, key := range order {
		pf := p.funcs[key]
		seen := map[string]bool{}
		ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pf.pkg.Info, call)
			if callee == nil {
				return true
			}
			ck := funcKey(callee)
			if _, inProg := p.funcs[ck]; inProg && !seen[ck] {
				seen[ck] = true
				edges[key] = append(edges[key], ck)
			}
			return true
		})
		sort.Strings(edges[key])
	}

	// Iterative Tarjan. Components come out callees-first, which is the
	// bottom-up order the fixpoint wants.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		v  string
		ei int
	}
	for _, root := range order {
		if _, visited := index[root]; visited {
			continue
		}
		work := []frame{{v: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(edges[v]) {
				to := edges[v][f.ei]
				f.ei++
				if _, visited := index[to]; !visited {
					work = append(work, frame{v: to})
					advanced = true
					break
				}
				if onStack[to] && index[to] < low[v] {
					low[v] = index[to]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var scc []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == v {
						break
					}
				}
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return sccs
}

func (p *Program) summaryByKey(key string) (Summary, bool) {
	if s, ok := p.summaries[key]; ok {
		return *s, true
	}
	return Summary{}, false
}

// SummaryOf returns the fixpoint summary for fn, resolving identity by
// key so export-data and source objects agree.
func (p *Program) SummaryOf(fn *types.Func) (Summary, bool) {
	return p.summaryByKey(funcKey(fn))
}

// Events returns the recorded source→sink taint events for one package
// path, in position order.
func (p *Program) Events(pkgPath string) []TaintEvent {
	return p.events[pkgPath]
}

func (p *Program) addEvent(pkgPath string, ev TaintEvent) {
	p.events[pkgPath] = append(p.events[pkgPath], ev)
}

// ExportFacts serializes the program's cross-package state (own and
// imported, so downstream units see the transitive view) for a .vetx
// file. Zero-valued summaries are elided.
func (p *Program) ExportFacts() *Facts {
	f := &Facts{Funcs: map[string]Summary{}}
	for k, s := range p.summaries {
		if s.TaintedResults == 0 && s.SinkParams == 0 && s.ValidatedParams == 0 &&
			len(s.Flows) == 0 && !s.Blocking {
			continue
		}
		f.Funcs[k] = *s
	}
	for k := range p.taintedFields {
		f.TaintedFields = append(f.TaintedFields, k)
	}
	for k := range p.checkedFields {
		f.CheckedFields = append(f.CheckedFields, k)
	}
	sort.Strings(f.TaintedFields)
	sort.Strings(f.CheckedFields)
	return f
}

// EncodeFacts renders facts as deterministic JSON for a .vetx file.
func EncodeFacts(f *Facts) ([]byte, error) {
	return json.Marshal(f)
}

// DecodeFacts parses a .vetx payload; empty or non-JSON payloads (other
// vet tools' fact formats, the pre-facts empty files) decode to nil
// rather than erroring, so mixed-tool caches stay harmless.
func DecodeFacts(data []byte) *Facts {
	if len(data) == 0 {
		return nil
	}
	var f Facts
	if err := json.Unmarshal(data, &f); err != nil {
		return nil
	}
	return &f
}

// MergeFacts folds src into dst (creating dst if nil), used to accumulate
// the per-dependency .vetx files of one go vet unit.
func MergeFacts(dst, src *Facts) *Facts {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = &Facts{Funcs: map[string]Summary{}}
	}
	if dst.Funcs == nil {
		dst.Funcs = map[string]Summary{}
	}
	for k, s := range src.Funcs {
		dst.Funcs[k] = s
	}
	dst.TaintedFields = append(dst.TaintedFields, src.TaintedFields...)
	dst.CheckedFields = append(dst.CheckedFields, src.CheckedFields...)
	return dst
}

// NarrowingFromUint64 reports whether call converts a non-constant uint64
// expression to an integer type that cannot represent every uint64,
// returning the destination and source type names. Shared by the flow
// engine (sink detection) and the uintcast analyzer's documentation of
// what it flags.
func NarrowingFromUint64(info *types.Info, call *ast.CallExpr) (to, from string, ok bool) {
	tv, isConv := info.Types[call.Fun]
	if !isConv || !tv.IsType() {
		return "", "", false
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || dst.Info()&types.IsInteger == 0 {
		return "", "", false
	}
	switch dst.Kind() {
	case types.Uint64, types.Uintptr:
		return "", "", false // lossless
	}
	av := info.Types[call.Args[0]]
	if av.Value != nil {
		return "", "", false // constants are checked by the compiler
	}
	src, ok := av.Type.Underlying().(*types.Basic)
	if !ok || src.Kind() != types.Uint64 {
		return "", "", false
	}
	return dst.String(), src.String(), true
}
