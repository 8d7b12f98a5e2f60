package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	Match      []string
	Error      *struct{ Err string }
}

// Load lists patterns with the go command (from dir, "" = cwd), then parses
// and type-checks every matched package from source, resolving imports
// through the compiler export data `go list -export` produces. Only
// non-test files are loaded, matching `go vet`'s default unit of analysis.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Name,GoFiles,CgoFiles,Export,Standard,Match,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("loading %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if len(p.Match) > 0 && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("loading %s: cgo packages are not supported", t.ImportPath)
		}
		names := make([]string, len(t.GoFiles))
		for i, g := range t.GoFiles {
			names[i] = filepath.Join(t.Dir, g)
		}
		pkg, err := typeCheck(fset, t.ImportPath, names, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses filenames and type-checks them as package path,
// resolving every import through imp.
func typeCheck(fset *token.FileSet, path string, filenames []string,
	imp types.Importer) (*Package, error) {

	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Run executes every analyzer over every package, applies the
// //batlint:ignore waiver filter, and returns all findings — waived ones
// marked, not dropped — sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var findings []Finding
	for _, pkg := range pkgs {
		var diags []Finding
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d Diagnostic) {
				f := Finding{
					Analyzer: name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				}
				f.EndLine = f.Pos.Line
				if d.End.IsValid() {
					if end := pkg.Fset.Position(d.End); end.Line > f.EndLine {
						f.EndLine = end.Line
					}
				}
				diags = append(diags, f)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		findings = append(findings, applyWaivers(pkg, diags, ran)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
