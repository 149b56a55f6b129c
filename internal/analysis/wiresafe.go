package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"tributarydelta/internal/analysis/framework"
)

// WireSafe enforces the sticky-error decoding contract of the receive path
// (DESIGN.md §8.2). In internal/wire's read-side functions and in every
// Decode*/decode*/ReadWire*/readWire* function repo-wide — the functions
// reachable from the datagram/envelope receive path, which parse bytes an
// adversary controls — it forbids:
//
//   - raw indexing or slicing of []byte values: bounds and truncation
//     handling belong to the sticky-error wire.Reader, whose methods are
//     the single audited, fuzzed implementation (the Reader's own methods
//     are exempt — they ARE the guard);
//   - encoding/binary varint decoding (binary.Uvarint and friends accept
//     non-minimal encodings, the canonicality bug class PR 7's fuzzing
//     shook out of the datagram path; wire.Reader.MinimalUvarint and
//     MinimalVarint reject them — plain Uvarint/Varint do not).
//
// Repo-wide it also requires every Append* codec that takes a []byte buffer
// to return a []byte — append-style encoders that mutate in place and drop
// the grown slice corrupt the caller's view of the buffer.
var WireSafe = &framework.Analyzer{
	Name: "wiresafe",
	Doc:  "receive-path decoding must go through the sticky-error wire.Reader; Append* codecs must return the appended slice",
	Run:  runWireSafe,
}

func runWireSafe(pass *framework.Pass) (any, error) {
	inWire := inScope(pass.Pkg.Path(), []string{"internal/wire"})
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkAppendCodecShape(pass, fn)
			if !isReceivePathFunc(fn, inWire) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IndexExpr:
					if isByteSlice(typeOf(pass, n.X)) {
						pass.Reportf(n.Pos(), "raw byte indexing %s in receive-path function %s; decode through the sticky-error wire.Reader", types.ExprString(n), fn.Name.Name)
					}
				case *ast.SliceExpr:
					if isByteSlice(typeOf(pass, n.X)) {
						pass.Reportf(n.Pos(), "raw byte slicing %s in receive-path function %s; decode through the sticky-error wire.Reader", types.ExprString(n), fn.Name.Name)
					}
				case *ast.CallExpr:
					callee := calleeFunc(pass.TypesInfo, n)
					if calleePkgPath(callee) == "encoding/binary" && strings.Contains(strings.ToLower(callee.Name()), "varint") {
						pass.Reportf(n.Pos(), "binary.%s accepts non-minimal varint encodings (canonicality bug class); use wire.Reader.MinimalUvarint/MinimalVarint", callee.Name())
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// isReceivePathFunc reports whether fn parses attacker-controlled bytes:
// any Decode*/ReadWire* (and unexported decode*/readWire*/read*) function,
// plus — inside internal/wire — every read-side function that is not a
// method on the Reader itself (the Reader's methods implement the guard and
// necessarily index the underlying buffer).
func isReceivePathFunc(fn *ast.FuncDecl, inWire bool) bool {
	name := fn.Name.Name
	if isReaderMethod(fn) {
		return false
	}
	for _, prefix := range []string{"Decode", "decode", "ReadWire", "readWire"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	if inWire {
		// wire's own read side beyond the naming convention: the Decoder's
		// methods and any Read*/read* helper.
		if strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "read") {
			return true
		}
		if fn.Recv != nil && receiverTypeName(fn) == "Decoder" {
			return true
		}
	}
	return false
}

// isReaderMethod reports whether fn is a method on wire.Reader (by receiver
// type name; the analyzer only exempts it inside internal/wire because only
// there can the type be declared).
func isReaderMethod(fn *ast.FuncDecl) bool {
	return fn.Recv != nil && receiverTypeName(fn) == "Reader"
}

// receiverTypeName returns the receiver's type name, or "".
func receiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr: // generic receiver T[P1, P2]
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// checkAppendCodecShape requires Append*-named functions with a []byte
// parameter to return at least one []byte result.
func checkAppendCodecShape(pass *framework.Pass, fn *ast.FuncDecl) {
	if !strings.HasPrefix(fn.Name.Name, "Append") {
		return
	}
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	hasByteParam := false
	for i := 0; i < sig.Params().Len(); i++ {
		if isByteSlice(sig.Params().At(i).Type()) {
			hasByteParam = true
			break
		}
	}
	if !hasByteParam {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isByteSlice(sig.Results().At(i).Type()) {
			return
		}
	}
	pass.Reportf(fn.Pos(), "append-style codec %s takes a []byte buffer but returns no []byte; return the appended slice so callers keep the grown buffer", fn.Name.Name)
}

// typeOf returns the static type of e, or nil.
func typeOf(pass *framework.Pass, e ast.Expr) types.Type {
	return pass.TypesInfo.Types[e].Type
}
