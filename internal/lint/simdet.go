package lint

import (
	"go/ast"
	"go/types"
)

// Simdet forbids nondeterminism sources in simulation packages
// (thinbench/internal/* except the lint suite itself). The BENCH baselines
// are diffed bit-for-bit in CI across -parallel 1/8; any of the
// constructs below can make two runs of the same seed disagree, which surfaces as an inexplicable golden diff long after
// the offending line merged.
//
// Rules:
//
//   - wallclock: calls that read the wall clock (time.Now, time.Since,
//     time.Until) or schedule against it (time.After, time.Tick,
//     time.NewTimer, time.NewTicker, time.AfterFunc). Simulation time is
//     simclock.Time; no simulation package reads the wall clock, and
//     timing the simulator from outside is the bench/ module's job.
//   - globalrand: uses of math/rand's (or math/rand/v2's) package-level
//     state — rand.Intn, rand.Float64, rand.Seed, … — which is shared,
//     lock-guarded, and seeded per-process. Streams must be *simclock.Rand
//     values derived via simclock.DeriveSeed (seedflow checks the
//     derivation).
//   - goroutine: go statements outside thinbench/internal/farm. Goroutine
//     interleaving is scheduler-determined; all parallelism must flow
//     through the farm, whose merge order is deterministic by construction.
//   - maporder: ranging over a map while appending to a slice declared
//     outside the loop, with no sort of that slice later in the same
//     function. Iteration order is randomized per run; once it escapes
//     into a slice it becomes event order, metric order, or output order.
//
// _test.go files are exempt wholesale: tests may time themselves, probe
// goroutines, and build unordered scratch freely.
var Simdet = &Analyzer{
	Name:  "simdet",
	Doc:   "forbid nondeterminism sources (wall clocks, global rand, stray goroutines, escaping map order) in simulation packages",
	Rules: []string{"wallclock", "globalrand", "goroutine", "maporder"},
	Run:   runSimdet,
}

// wallclockFuncs are the time package functions that read or schedule
// against the wall clock. Pure conversions and constructors (time.Duration,
// time.Unix, time.Date) stay legal.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

func runSimdet(pass *Pass) {
	if !simPackage(pass.PkgPath()) {
		return
	}
	farm := pass.PkgPath() == ModulePath+"/internal/farm"
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkWallclock(pass, n)
			case *ast.SelectorExpr:
				checkGlobalRand(pass, n)
			case *ast.GoStmt:
				if !farm {
					pass.Reportf(n.Go, "simdet.goroutine",
						"goroutine spawned outside internal/farm: scheduler interleaving is nondeterministic; route parallelism through the farm")
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapOrder(pass, n.Body)
				}
			}
			return true
		})
	}
}

func checkWallclock(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if !wallclockFuncs[sel.Sel.Name] {
		return
	}
	if pkgFunc(pass.TypesInfo, call, "time", sel.Sel.Name) {
		pass.Reportf(call.Pos(), "simdet.wallclock",
			"time.%s reads the wall clock: simulation code must use simclock.Time so runs are bit-reproducible", sel.Sel.Name)
	}
}

// checkGlobalRand flags selectors that resolve to package-level objects of
// math/rand or math/rand/v2 — both the convenience functions (rand.Intn)
// and the shared globals they wrap.
func checkGlobalRand(pass *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	path := pkgName.Imported().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return
	}
	// Constructors and types are fine (rand.New, rand.NewSource,
	// rand.Source, …): they build private streams, which seedflow vets.
	// Only the package-level shared state is nondeterministic.
	switch obj.(type) {
	case *types.Func:
		name := sel.Sel.Name
		if name == "New" || name == "NewSource" || name == "NewZipf" || name == "NewPCG" || name == "NewChaCha8" {
			return
		}
		pass.Reportf(sel.Pos(), "simdet.globalrand",
			"%s.%s uses the process-global rand stream: derive a *simclock.Rand via simclock.DeriveSeed instead", id.Name, name)
	case *types.Var:
		pass.Reportf(sel.Pos(), "simdet.globalrand",
			"%s.%s is shared package-level rand state: derive a *simclock.Rand via simclock.DeriveSeed instead", id.Name, sel.Sel.Name)
	}
}

// checkMapOrder walks one function body looking for range-over-map loops
// whose body appends to a slice declared outside the loop, where that
// slice is never sorted later in the same body. That pattern copies
// iteration order — randomized per run — into data that outlives the loop.
func checkMapOrder(pass *Pass, body *ast.BlockStmt) {
	// sorted collects objects passed to a sort call anywhere in the body.
	// The check is flow-insensitive on purpose: a sort anywhere in the
	// function is taken as ordering the slice before it escapes, which is
	// the pattern the codebase actually uses (collect keys, sort, range).
	sorted := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortCall(pass.TypesInfo, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := rootIdent(arg); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					sorted[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		// Find appends inside the loop body targeting a variable declared
		// outside the loop.
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			asn, ok := m.(*ast.AssignStmt)
			if !ok || len(asn.Rhs) != 1 {
				return true
			}
			call, ok := asn.Rhs[0].(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass.TypesInfo, call) {
				return true
			}
			id, ok := rootIdent(asn.Lhs[0])
			if !ok {
				return true
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil || sorted[obj] {
				return true
			}
			// Declared inside the loop body → dies with the iteration,
			// order can't escape.
			if rng.Body.Pos() <= obj.Pos() && obj.Pos() <= rng.Body.End() {
				return true
			}
			pass.Reportf(asn.Pos(), "simdet.maporder",
				"append inside map range copies iteration order into %s, which outlives the loop unsorted: sort the keys first or sort %s after", id.Name, id.Name)
			return true
		})
		return true
	})
}

// isSortCall matches calls into the sort and slices packages.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rootIdent digs through selectors and index expressions to the base
// identifier: u.ops[i] → u, keys → keys.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
