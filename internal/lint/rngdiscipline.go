package lint

import (
	"go/ast"
	"go/types"
	"strconv"

	"meg/internal/lint/scope"
)

// RNGDiscipline enforces the counter-based randomness contract inside
// determinism-critical packages:
//
//  1. the only randomness source is meg/internal/rng — math/rand,
//     math/rand/v2, and crypto/rand imports are findings;
//  2. rng streams must derive from the trial seed: a call to rng.New,
//     rng.At, rng.StreamsOf, rng.Mix, rng.SeedFor, or (*rng.RNG).Seed
//     whose arguments are all compile-time constants constructs a
//     stream that is a function of nothing — it cannot vary with the
//     trial seed, so every trial (and every cache key) silently shares
//     it.
//
// Constant *components* are fine — rng.Mix(base, tagBirths, t) uses a
// constant domain-separation tag — the finding fires only when no
// argument carries runtime-derived entropy at all.
var RNGDiscipline = &Analyzer{
	Name: "rngdiscipline",
	Doc:  "forbid non-internal/rng randomness and constant-seeded rng streams in determinism-critical packages",
	Run:  runRNGDiscipline,
}

// seedConstructors are the internal/rng entry points that key a
// stream. Methods are matched by receiver type below.
var seedConstructors = map[string]bool{
	"New": true, "At": true, "StreamsOf": true, "Mix": true, "SeedFor": true,
}

func runRNGDiscipline(pass *Pass) error {
	if !scope.Deterministic(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, bad := scope.ForbiddenRandImports[path]; bad {
				pass.Reportf(imp.Pos(),
					"import of %s in determinism-critical package %s (%s): draw all randomness from %s, keyed (node, round) via rng.Mix/rng.At",
					path, pass.Path, why, scope.RNGPath)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := rngCallee(pass, call)
			if fn == "" || len(call.Args) == 0 {
				return true
			}
			if !allConstant(pass, call.Args) {
				return true
			}
			pass.Reportf(call.Pos(),
				"rng.%s called with only compile-time constants: the stream cannot derive from the trial seed; key it with rng.Mix/rng.At over the trial base seed and the (node, round) counters",
				fn)
			return true
		})
	}
	return nil
}

// rngCallee returns the internal/rng stream-keying function the call
// invokes ("New", "At", "StreamsOf", "Mix", "SeedFor", or "Seed" for
// the method), or "" if the call is something else.
func rngCallee(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != scope.RNGPath {
		return ""
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name == "Seed" {
			return name
		}
		return ""
	}
	if seedConstructors[name] {
		return name
	}
	return ""
}

// allConstant reports whether every argument is a compile-time
// constant (including constant-folded expressions and conversions of
// constants).
func allConstant(pass *Pass, args []ast.Expr) bool {
	for _, a := range args {
		tv, ok := pass.TypesInfo.Types[a]
		if !ok || tv.Value == nil {
			return false
		}
	}
	return true
}
