package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"tributarydelta/internal/analysis/framework"
)

// determinismScope lists the packages whose every stochastic or ordered
// decision must be a pure function of (seed, identifiers): the epoch
// engine and everything it transmits. Matched as path suffixes so fixture
// packages can opt in.
var determinismScope = []string{
	"internal/runner",
	"internal/aggregate",
	"internal/sketch",
	"internal/freq",
	"internal/quantile",
	"internal/network",
	// The UDP transport carries real deadlines on its control plane and
	// barrier; those wall-clock uses bound waiting, never answer bits, and
	// are individually //lint:ignore'd so any NEW one that could leak into
	// the epoch path must justify itself.
	"internal/transport",
	// The chaos driver's noise model must draw from per-shard seeded
	// generators and its fault schedule from data; only its proxy plumbing
	// (reorder release, stall gates) may touch real timers.
	"internal/chaos",
}

// Determinism enforces the bit-reproducibility contract of the epoch path
// (DESIGN.md §8.1): inside the scope packages it forbids wall-clock reads
// (time.Now/Since/Until), the process-global math/rand generators, and
// unordered iteration over maps. Loss realizations, hash draws and schedule
// order must derive from the xrand.Split(seed, ids...) discipline, and any
// map walk whose order cannot leak into answers or frames must say why in a
// //lint:ignore justification.
var Determinism = &framework.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand and unordered map iteration in the epoch path",
	Run:  runDeterminism,
}

func runDeterminism(pass *framework.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), determinismScope) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			case *ast.RangeStmt:
				if n.X != nil && isMap(pass.TypesInfo.Types[n.X].Type) {
					pass.Reportf(n.Pos(), "unordered range over map %s in the deterministic epoch path; iterate sorted keys (see freq.sortedItems) or justify with //lint:ignore determinism", types.ExprString(n.X))
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkDeterminismCall flags wall-clock reads and global math/rand draws.
func checkDeterminismCall(pass *framework.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Methods (rand.Rand.Intn on a seeded local generator, time.Time.Sub)
	// are fine; only package-level functions read ambient state.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return
	}
	switch calleePkgPath(fn) {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "wall-clock read time.%s in the deterministic epoch path; derive values from xrand.Split(seed, ids...) or justify with //lint:ignore determinism", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors of explicitly-seeded generators are fine; the
		// package-level draws consume the shared global source.
		if !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(), "global math/rand draw rand.%s in the deterministic epoch path; use xrand.Split sub-streams instead", fn.Name())
		}
	}
}

// isMap reports whether t is a map type (after unaliasing).
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
