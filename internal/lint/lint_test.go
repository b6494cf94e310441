package lint

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
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture harness is an analysistest analogue: each directory under
// testdata/ is one package of fixture files, type-checked against the real
// module (so fixtures import thinbench/internal/simclock, display, proto),
// run through one analyzer, and checked against `// want` expectations:
//
//	return time.Now() // want `simdet\.wallclock`
//
// Every backquoted regexp on a line must match a diagnostic reported on
// that line (against "check message"), and every diagnostic must be
// matched by an expectation. testdata/ is invisible to go build, so the
// deliberate violations never dirty the tree the real lint job checks.

// exportFiles maps package import paths to compiled export data, obtained
// once per test binary from `go list -export`. The fixture loader feeds it
// to the same gc importer the vettool uses.
var exportFiles struct {
	once  sync.Once
	files map[string]string
	err   error
}

func exportLookup(t *testing.T) func(string) (io.ReadCloser, error) {
	t.Helper()
	exportFiles.once.Do(func() {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export",
			"./...", "time", "math/rand", "fmt", "sort", "slices")
		cmd.Dir = moduleRoot()
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			exportFiles.err = fmt.Errorf("go list -export: %v", err)
			return
		}
		exportFiles.files = make(map[string]string)
		dec := json.NewDecoder(&out)
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				exportFiles.err = err
				return
			}
			if p.Export != "" {
				exportFiles.files[p.ImportPath] = p.Export
			}
		}
	})
	if exportFiles.err != nil {
		t.Fatal(exportFiles.err)
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := exportFiles.files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

func moduleRoot() string {
	// The test binary runs in internal/lint; the module root is two up.
	return filepath.Join("..", "..")
}

// runFixture type-checks testdata/<dir> as package pkgPath and returns the
// analyzer's surviving (post-suppression) diagnostics.
func runFixture(t *testing.T, dir, pkgPath string, a *Analyzer) (*token.FileSet, []Diagnostic, []*ast.File) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in testdata/%s: %v", dir, err)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	tcfg := types.Config{Importer: importer.ForCompiler(fset, "gc", exportLookup(t))}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tcfg.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck testdata/%s: %v", dir, err)
	}
	return fset, RunAnalyzers(fset, files, pkg, info, []*Analyzer{a}), files
}

var wantRE = regexp.MustCompile("// want((?: `[^`]+`)+)")
var wantArgRE = regexp.MustCompile("`([^`]+)`")

// checkWants matches diagnostics against // want expectations.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	type want struct {
		file    string
		line    int
		re      *regexp.Regexp
		raw     string
		matched bool
	}
	var wants []*want
	for _, f := range files {
		fname := fset.Position(f.Package).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := fset.Position(c.Slash).Line
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", fname, line, arg[1], err)
					}
					wants = append(wants, &want{file: fname, line: line, re: re, raw: arg[1]})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		text := d.Check + " " + d.Message
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", pos, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.raw)
		}
	}
}

func TestSimdetFixture(t *testing.T) {
	fset, diags, files := runFixture(t, "simdet", ModulePath+"/internal/lintfix/simdet", Simdet)
	checkWants(t, fset, files, diags)
}

func TestHotpathFixture(t *testing.T) {
	fset, diags, files := runFixture(t, "hotpath", ModulePath+"/internal/lintfix/hotpath", Hotpath)
	checkWants(t, fset, files, diags)

	// The load-bearing case: the fixture mirror of the server's input path
	// must surface a keystroke batch boxed into display.InputEvent on every
	// call, the boxing Server.start does once instead.
	found := false
	for _, d := range diags {
		if d.Check == "hotpath.box" && strings.Contains(d.Message, "display.InputEvent") {
			found = true
		}
	}
	if !found {
		t.Errorf("hotpath did not report the display.InputEvent boxing on the echo-path mirror; got %d diagnostics", len(diags))
	}
}

func TestPoolsafeFixture(t *testing.T) {
	fset, diags, files := runFixture(t, "poolsafe", ModulePath+"/internal/lintfix/poolsafe", Poolsafe)
	checkWants(t, fset, files, diags)
}

func TestSeedflowFixture(t *testing.T) {
	fset, diags, files := runFixture(t, "seedflow", ModulePath+"/internal/lintfix/seedflow", Seedflow)
	checkWants(t, fset, files, diags)
}

// TestDirectiveFixture asserts the grammar checks directly — in particular
// that //thinlint:allow with an unknown check name is itself a diagnostic,
// not a silent no-op. (The directive diagnostics land on the directive
// comment's own line, where a // want comment cannot also sit, so this
// test enumerates expectations instead of using the fixture syntax.)
func TestDirectiveFixture(t *testing.T) {
	fset, diags, _ := runFixture(t, "directive", ModulePath+"/internal/lintfix/directive", DirectiveAnalyzer)
	type exp struct {
		check   string
		message string
	}
	want := []exp{
		{"directive.check", `unknown check "nosuch.check"`},
		{"directive.reason", "needs a reason"},
		{"directive.verb", `unknown thinlint directive "frobnicate"`},
		{"directive.placement", "must appear in a function declaration's doc comment"},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s: %s [%s]", fset.Position(d.Pos), d.Message, d.Check)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		if diags[i].Check != w.check || !strings.Contains(diags[i].Message, w.message) {
			t.Errorf("diagnostic %d = [%s] %q, want [%s] containing %q",
				i, diags[i].Check, diags[i].Message, w.check, w.message)
		}
	}
}

// TestSuiteRegistry pins the analyzer/rule names the directive grammar
// accepts; renaming a rule silently orphans every allow directive citing
// it, so a rename must show up here.
func TestSuiteRegistry(t *testing.T) {
	got := make(map[string][]string)
	for _, a := range Analyzers() {
		got[a.Name] = a.Rules
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
	want := map[string][]string{
		"directive": {"verb", "check", "reason", "placement"},
		"simdet":    {"wallclock", "globalrand", "goroutine", "maporder"},
		"hotpath":   {"alloc", "box", "closure", "fmt"},
		"poolsafe":  {"retain", "arena"},
		"seedflow":  {"literal", "adhoc"},
	}
	for name, rules := range want {
		if fmt.Sprint(got[name]) != fmt.Sprint(rules) {
			t.Errorf("analyzer %s rules = %v, want %v", name, got[name], rules)
		}
	}
	if len(got) != len(want) {
		t.Errorf("suite has %d analyzers, want %d", len(got), len(want))
	}
}
