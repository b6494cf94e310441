// Package lint is thinlint: a suite of static analyzers that machine-check
// the simulator's determinism, hot-path, and pooling invariants — the
// contracts no compiler enforces but every BENCH baseline depends on.
//
// The repo's reproducibility story rests on rules that today live only in
// comments and golden-diff ratchets: simulation code must never read wall
// clocks or the global math/rand state, map iteration order must never leak
// into results, every random stream must derive from simclock.DeriveSeed,
// *simclock.Event handles die when their callback returns, and
// proto.Scratch arenas belong to their callers. Each analyzer turns one of
// those contracts into a CI-time diagnostic with a file:line position, so a
// regression is caught when it is written instead of when a baseline
// drifts.
//
// The suite (see Analyzers):
//
//   - simdet: forbids nondeterminism sources in simulation packages — wall
//     clocks, global math/rand, goroutine spawns outside internal/farm, and
//     map-iteration order escaping into slices without a sort.
//   - hotpath: flags allocation sources (heap allocations, interface
//     boxing, capturing closures, fmt calls) inside functions annotated
//     //thinlint:hotpath.
//   - poolsafe: reports *simclock.Event handles retained past their
//     fire/recycle boundary and proto.Scratch arenas leaked to callers.
//   - seedflow: requires rand streams to be seeded via simclock.DeriveSeed
//     (literal seeds allowed only in _test.go).
//   - directive: validates the //thinlint: directive grammar itself, so an
//     //thinlint:allow naming an unknown check is a diagnostic rather than
//     a silent no-op.
//
// Findings are suppressed in place with an explicit, reasoned directive:
//
//	//thinlint:allow <analyzer>[.<rule>] <reason...>
//
// which applies to its own line and the line below it. The framework is a
// deliberately small, stdlib-only analogue of golang.org/x/tools/go/analysis
// (which the build environment does not vendor): Analyzer, Pass, and
// Diagnostic keep the same shape, and cmd/thinlint speaks the go vet
// -vettool unit-checker protocol, so the suite runs as
//
//	go build -o thinlint ./cmd/thinlint
//	go vet -vettool=$PWD/thinlint ./...
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ModulePath is the import-path prefix of the code the suite guards.
// Analyzer activation is keyed on it so the suite stays quiet if the tool
// is ever pointed at foreign code.
const ModulePath = "thinbench"

// An Analyzer is one named, documented check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //thinlint:allow directives.
	Name string
	// Doc is the one-paragraph description printed by help output.
	Doc string
	// Rules names the analyzer's sub-checks; //thinlint:allow accepts
	// either the bare analyzer name or analyzer.rule.
	Rules []string
	// Run reports the analyzer's findings through pass.Report.
	Run func(pass *Pass)
}

// Analyzers is the thinlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DirectiveAnalyzer, Simdet, Hotpath, Poolsafe, Seedflow}
}

// A Diagnostic is one finding at a position. Check is the qualified rule
// ("simdet.wallclock"), which is also what an allow directive must name.
type Diagnostic struct {
	Pos     token.Pos
	Check   string
	Message string
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The framework drops diagnostics
	// suppressed by an //thinlint:allow directive on the diagnostic's line
	// or the line above before they reach the driver.
	Report func(Diagnostic)

	directives map[*ast.File]*fileDirectives
}

// Reportf reports a formatted diagnostic for the qualified check.
func (p *Pass) Reportf(pos token.Pos, check, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Check: check, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Several rules
// relax there: tests may time themselves, seed literally, and hold event
// handles to probe the queue.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PkgPath is the package's import path with any test-variant suffix
// (e.g. "pkg [pkg.test]") stripped, so activation checks see the real path.
func (p *Pass) PkgPath() string {
	path := p.Pkg.Path()
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return path
}

// RunAnalyzers type-checks nothing itself: given a loaded package, it runs
// every analyzer, filters allow-suppressed findings, and returns the
// survivors sorted by position then check name.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	dirs := parseDirectives(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			directives: dirs,
		}
		pass.Report = func(d Diagnostic) {
			if d.Check == "" {
				d.Check = a.Name
			}
			if suppressed(fset, dirs, d) {
				return
			}
			out = append(out, d)
		}
		a.Run(pass)
	}
	sortDiagnostics(fset, out)
	return out
}

// suppressed reports whether an allow directive covers the diagnostic: the
// directive must name the diagnostic's analyzer or its qualified rule and
// sit on the diagnostic's line or the line immediately above, in the same
// file.
func suppressed(fset *token.FileSet, dirs map[*ast.File]*fileDirectives, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, fd := range dirs {
		if fd.name != pos.Filename {
			continue
		}
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, al := range fd.allows[line] {
				if al.check == d.Check || al.check == analyzerOf(d.Check) {
					return true
				}
			}
		}
		return false
	}
	return false
}

// analyzerOf strips the rule from a qualified check name.
func analyzerOf(check string) string {
	if i := strings.IndexByte(check, '.'); i >= 0 {
		return check[:i]
	}
	return check
}

func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && diagnosticLess(fset, ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func diagnosticLess(fset *token.FileSet, a, b Diagnostic) bool {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	if pa.Column != pb.Column {
		return pa.Column < pb.Column
	}
	return a.Check < b.Check
}

// simPackage reports whether path is one of the deterministic-simulation
// packages simdet guards: everything under thinbench/internal/ except the
// lint suite itself. (internal/farm stays in the set with a targeted
// goroutine exemption.)
func simPackage(path string) bool {
	if !strings.HasPrefix(path, ModulePath+"/internal/") {
		return false
	}
	return path != ModulePath+"/internal/lint"
}

// namedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// pkgFunc reports whether the call expression invokes the package-level
// function pkgPath.name (not a method), resolving through the import.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	// Package-level functions have no receiver.
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
