package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tributarydelta/internal/analysis/framework"
)

// statsWriterAllowed lists the packages permitted to mutate network.Stats
// transmit counters directly: the stats type's own package, the epoch
// engine's single dispatch goroutine, and the transport backends' dispatch
// paths — the single-writer contract established in PR 4 when Stats dropped
// its mutex.
var statsWriterAllowed = []string{
	"internal/network",
	"internal/runner",
	"internal/transport",
}

// statsTxFields are the plain transmit-side counters of network.Stats:
// single-writer by contract, written only from the dispatch packages, and
// never through sync/atomic — the atomic side of the type is the published
// totals and the receive counters, not these.
var statsTxFields = map[string]bool{
	"Transmissions": true,
	"Words":         true,
	"Bytes":         true,
	"Losses":        true,
	"LevelBytes":    true,
	"txWords":       true,
	"txBytes":       true,
	"txLosses":      true,
}

// statsRxFields are the receive-side counters: updated atomically by
// concurrent receiver runtimes (that IS their contract), but still written
// only by the dispatch packages.
var statsRxFields = map[string]bool{
	"RxFrames":   true,
	"RxBytes":    true,
	"Duplicates": true,
}

// StatsWriter enforces the single-writer network.Stats contract (DESIGN.md
// §8.3): plain transmit counters are written only by the dispatch packages
// (reads are free for everyone), sync/atomic must never touch them (the
// atomic side of Stats is the published totals, not the counters), and the
// Stats struct itself must not regrow a mutex — PR 4 removed it
// deliberately, and mixing mutex and plain/atomic access on one type is
// how the pre-PR-4 races crept in.
var StatsWriter = &framework.Analyzer{
	Name: "statswriter",
	Doc:  "network.Stats plain counters: single-writer dispatch packages only, no atomic/mutex mixing",
	Run:  runStatsWriter,
}

func runStatsWriter(pass *framework.Pass) (any, error) {
	allowed := inScope(pass.Pkg.Path(), statsWriterAllowed)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if allowed {
					return true
				}
				for _, lhs := range n.Lhs {
					if field, ok := statsCounterTarget(pass, lhs); ok {
						pass.Reportf(lhs.Pos(), "write to network.Stats.%s outside the single-writer dispatch packages; record through a Stats method from the dispatch goroutine", field)
					}
				}
			case *ast.IncDecStmt:
				if allowed {
					return true
				}
				if field, ok := statsCounterTarget(pass, n.X); ok {
					pass.Reportf(n.Pos(), "write to network.Stats.%s outside the single-writer dispatch packages; record through a Stats method from the dispatch goroutine", field)
				}
			case *ast.CallExpr:
				checkAtomicOnStats(pass, n)
			case *ast.TypeSpec:
				checkStatsMutexField(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// statsCounterTarget reports whether expr writes an element or the whole of
// one of network.Stats' plain counter fields, returning the field name.
func statsCounterTarget(pass *framework.Pass, expr ast.Expr) (string, bool) {
	e := ast.Unparen(expr)
	// Peel element/slice accesses: s.Words[v] writes the Words counter.
peel:
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			break peel
		}
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !(statsTxFields[sel.Sel.Name] || statsRxFields[sel.Sel.Name]) {
		return "", false
	}
	if !isNetworkStats(typeOf(pass, sel.X)) {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkAtomicOnStats flags sync/atomic calls that take the address of a
// plain transmit counter — atomics mutate through pointers, so &s.Field is
// the mixing signature. The receive counters are excluded: atomic updates
// are their documented contract.
func checkAtomicOnStats(pass *framework.Pass, call *ast.CallExpr) {
	callee := calleeFunc(pass.TypesInfo, call)
	if calleePkgPath(callee) != "sync/atomic" {
		return
	}
	for _, arg := range call.Args {
		u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			continue
		}
		if field, ok := statsCounterTarget(pass, u.X); ok && statsTxFields[field] {
			pass.Reportf(call.Pos(), "atomic.%s on network.Stats.%s mixes atomics onto a plain single-writer transmit counter; the memory model is plain counters + Publish, not per-counter atomics", callee.Name(), field)
		}
	}
}

// checkStatsMutexField flags a mutex field (re)introduced on the Stats
// struct declaration itself.
func checkStatsMutexField(pass *framework.Pass, spec *ast.TypeSpec) {
	if spec.Name.Name != "Stats" || !inScope(pass.Pkg.Path(), []string{"internal/network"}) {
		return
	}
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		t := typeOf(pass, field.Type)
		if t == nil {
			continue
		}
		name := t.String()
		if strings.HasSuffix(name, "sync.Mutex") || strings.HasSuffix(name, "sync.RWMutex") {
			pass.Reportf(field.Pos(), "mutex field on network.Stats: PR 4 removed Stats locking in favor of the single-writer + atomic-publish scheme; do not mix a mutex back in")
		}
	}
}

// isNetworkStats reports whether t is network.Stats or *network.Stats (any
// package whose path ends in internal/network, so fixtures can stand in).
func isNetworkStats(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != "Stats" || obj.Pkg() == nil {
		return false
	}
	return inScope(obj.Pkg().Path(), []string{"internal/network"})
}
