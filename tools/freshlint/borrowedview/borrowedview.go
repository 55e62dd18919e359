// Package borrowedview enforces the borrowed-buffer contract on the
// zero-copy serving path: byte slices lent by kv.Authority.GetView /
// GetViewAged / GetViewAgedBatch are the authority's own entry buffers,
// and proto.SharedFrame.Bytes is a refcounted frame's backing array. A
// caller that mutates one corrupts the stored value for every future
// reader; a caller that stows one in a struct, global, map, or channel
// lets it outlive the borrow (the frame is recycled on Release, the
// entry buffer's immutability promise only covers the lending scope).
//
// The same contract covers the response *proto.Msg lent to a client
// completion (a Complete(resp *proto.Msg, err error) method, see
// client.Completion): the client decodes every frame into that one Msg
// and its byte slices alias the connection's read buffer, so it — and
// its slice fields — are valid only until Complete returns, and it is
// not the completion's to release. client.DecodeMGet and DecodeMPut hand
// back the lent Msg's own op list and client.DecodeGet its value, so their
// results are lent on the same terms.
//
// And it covers the request a connection's read loop hands a function that
// starts an asynchronous client verb (Client.MPutAsync, RestoreAsync, ...,
// or a scattered one: Sharded.MGetAsync, MPutAsync): the verb encodes the
// request bytes it is given before it returns precisely so that they may be
// the reader's own — which makes the function's *proto.Msg parameter, its
// slices, and the locals cut from them, lent until the function returns.
// The record that outlives the call (a pooled scattered request, a countdown
// of legs) keeps a copy or nothing.
package borrowedview

import (
	"go/ast"
	"go/types"
	"strings"

	"freshcache/tools/freshlint/analysis"
	"freshcache/tools/freshlint/internal/lintutil"
)

const (
	kvPkg     = "internal/kv"
	protoPkg  = "internal/proto"
	clientPkg = "internal/client"
)

// Analyzer checks that borrowed view buffers neither escape nor mutate.
var Analyzer = &analysis.Analyzer{
	Name: "borrowedview",
	Doc: `check that borrowed buffers from GetView/EncodeShared never escape or mutate

Values returned by kv.Authority.GetView/GetViewAged (and lent to the
GetViewAgedBatch callback) and by proto.SharedFrame.Bytes are borrowed:
they may flow into serve/flush calls within the scope, but must not be
written through (index assignment, copy destination, append) and must
not be stored into struct fields, package-level variables, map or slice
elements, or sent on channels. Paths that need an owned copy must use
Authority.Get, or copy explicitly.

The *proto.Msg parameter of a completion — a method
Complete(resp *proto.Msg, err error) — is borrowed the same way, together
with every slice reachable through it (resp.Value, resp.Ops,
resp.Ops[i].Value, ...): it may be read and passed down, but not
retained, written through, or handed to proto.PutMsg.

In a function that calls an asynchronous verb of client.Client or
client.Sharded (a method whose name ends in Async), a *proto.Msg parameter is the request the
connection's reader lent it. Its slices, and local variables assigned
from them, may be read, passed down and written into the reader's own Msg,
but not stored in struct fields, package-level variables, map or slice
elements, or sent on channels.`,
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	borrowed := collectBorrowed(pass)
	if len(borrowed) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		checkUses(pass, file, borrowed)
	}
	return nil, nil
}

// collectBorrowed finds every variable bound to a borrowed buffer:
//
//	value, ver, ok := auth.GetView(key)            // value borrowed
//	value, ver, w, ok := auth.GetViewAged(key)     // value borrowed
//	auth.GetViewAgedBatch(keys, func(i int, value []byte, ...) {...})
//	b := frame.Bytes()                             // b borrowed
//	ops, err := client.DecodeMGet(resp, keys)      // ops borrowed (resp.Ops); DecodeMPut too
//	value, ver, err := client.DecodeGet(resp, key) // value borrowed (resp.Value)
//	func (c *T) Complete(resp *proto.Msg, err error) // resp lent
//	func relay(m *proto.Msg) { stores.MPutAsync(m.Ops, 0, q) }   // m lent
//	ops := m.Ops                                   // ops as lent as m
func collectBorrowed(pass *analysis.Pass) map[*types.Var]string {
	borrowed := make(map[*types.Var]string)
	mark := func(expr ast.Expr, what string) {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok {
			borrowed[v] = what
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if resp := completionMsg(pass, n); resp != nil {
					mark(resp, lentMsg)
				}
				for _, req := range asyncRequests(pass, n) {
					mark(req, lentReq)
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := lintutil.Callee(pass.TypesInfo, call)
				switch {
				case lintutil.IsMethod(fn, kvPkg, "Authority", "GetView"),
					lintutil.IsMethod(fn, kvPkg, "Authority", "GetViewAged"):
					mark(n.Lhs[0], "Authority."+fn.Name())
				case lintutil.IsMethod(fn, protoPkg, "SharedFrame", "Bytes"):
					mark(n.Lhs[0], "SharedFrame.Bytes")
				case lintutil.IsPkgFunc(fn, clientPkg, "DecodeMGet"),
					lintutil.IsPkgFunc(fn, clientPkg, "DecodeMPut"):
					mark(n.Lhs[0], lentMsg+"'s ops")
				case lintutil.IsPkgFunc(fn, clientPkg, "DecodeGet"):
					mark(n.Lhs[0], lentMsg+"'s value")
				}
			case *ast.CallExpr:
				fn := lintutil.Callee(pass.TypesInfo, n)
				if lintutil.IsMethod(fn, kvPkg, "Authority", "GetViewAgedBatch") && len(n.Args) == 2 {
					if fl, ok := ast.Unparen(n.Args[1]).(*ast.FuncLit); ok {
						params := fl.Type.Params.List
						// func(i int, value []byte, version uint64, written time.Time, ok bool)
						var flat []*ast.Ident
						for _, p := range params {
							flat = append(flat, p.Names...)
						}
						if len(flat) >= 2 {
							mark(flat[1], "Authority.GetViewAgedBatch value")
						}
					}
				}
			}
			return true
		})
	}
	// A local cut from a lent request is as lent as the request: follow
	// x := m.Ops and the like until nothing new turns up.
	for grew := true; grew; {
		grew = false
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					v := lintutil.VarOf(pass.TypesInfo, lhs)
					if v == nil || v.Parent() == pass.Pkg.Scope() || borrowed[v] != "" {
						continue
					}
					if borrowed[rootVar(pass, as.Rhs[i])] == lentReq && holdsSlice(v.Type()) {
						borrowed[v] = lentReq
						grew = true
					}
				}
				return true
			})
		}
	}
	return borrowed
}

// lentMsg labels the response Msg lent to a completion, lentReq the
// request a read loop lends a function that starts an asynchronous verb.
const (
	lentMsg = "completion's lent Msg"
	lentReq = "reader's lent request"
)

// asyncRequests returns fd's *proto.Msg parameters if its body starts an
// asynchronous verb of a client or of a sharded client: they are the
// requests being relayed.
func asyncRequests(pass *analysis.Pass, fd *ast.FuncDecl) []*ast.Ident {
	if fd.Body == nil {
		return nil
	}
	starts := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !starts {
			fn := lintutil.Callee(pass.TypesInfo, call)
			starts = fn != nil && strings.HasSuffix(fn.Name(), "Async") &&
				(lintutil.IsMethod(fn, clientPkg, "Client", fn.Name()) || lintutil.IsMethod(fn, clientPkg, "Sharded", fn.Name()))
		}
		return !starts
	})
	if !starts {
		return nil
	}
	var reqs []*ast.Ident
	for _, p := range fd.Type.Params.List {
		for _, name := range p.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				if _, isPtr := obj.Type().(*types.Pointer); isPtr && lintutil.TypeIs(obj.Type(), protoPkg, "Msg") {
					reqs = append(reqs, name)
				}
			}
		}
	}
	return reqs
}

// rootVar resolves the variable an expression is reached through:
// m.Ops[i].Value, m.Ops[:2] and m itself all root at m.
func rootVar(pass *analysis.Pass, expr ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		default:
			return lintutil.VarOf(pass.TypesInfo, e)
		}
	}
}

// completionMsg returns the name of the lent response parameter if fd
// is a completion method — Complete(resp *proto.Msg, err error) — or nil.
func completionMsg(pass *analysis.Pass, fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || fd.Name.Name != "Complete" || fd.Type.Results != nil {
		return nil
	}
	var names []*ast.Ident
	for _, p := range fd.Type.Params.List {
		names = append(names, p.Names...)
	}
	if len(names) != 2 {
		return nil
	}
	typeOf := func(id *ast.Ident) types.Type {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
		return nil
	}
	resp, errT := typeOf(names[0]), typeOf(names[1])
	if resp == nil || errT == nil {
		return nil
	}
	if _, isPtr := resp.(*types.Pointer); !isPtr || !lintutil.TypeIs(resp, protoPkg, "Msg") {
		return nil
	}
	if !types.Identical(errT, types.Universe.Lookup("error").Type()) {
		return nil
	}
	return names[0]
}

// holdsSlice reports whether a value of type t is, or directly embeds, a
// slice: copying it copies a reference to someone else's backing array.
func holdsSlice(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsSlice(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// borrowedRef is one mention of a borrowed buffer: name is how the
// source spells it, what says who lent it.
type borrowedRef struct{ name, what string }

func checkUses(pass *analysis.Pass, file *ast.File, borrowed map[*types.Var]string) {
	isBorrowed := func(expr ast.Expr) (borrowedRef, bool) {
		expr = ast.Unparen(expr)
		if v := lintutil.VarOf(pass.TypesInfo, expr); v != nil {
			what, ok := borrowed[v]
			return borrowedRef{v.Name(), what}, ok
		}
		// A slice reached through a borrowed value (view[4:], resp.Value,
		// resp.Ops[i].Value), or an element that carries one
		// (resp.Ops[i]), is as borrowed as the value.
		what, ok := borrowed[rootVar(pass, expr)]
		if !ok || !holdsSlice(pass.TypesInfo.TypeOf(expr)) {
			return borrowedRef{}, false
		}
		return borrowedRef{types.ExprString(expr), what}, true
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				// Mutation: view[i] = x writes the authority's buffer. (A
				// lent request is the connection's own to scribble on.)
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if b, ok := isBorrowed(ix.X); ok && b.what != lentReq {
						pass.Reportf(ix.Pos(), "write into borrowed %s buffer %s: the view is immutable; use a copying accessor", b.what, b.name)
					}
				}
				// Escape: field/global/element stores outlive the borrow.
				if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
					if b, ok := isBorrowed(n.Rhs[i]); ok {
						switch tgt := ast.Unparen(lhs).(type) {
						case *ast.SelectorExpr:
							pass.Reportf(n.Rhs[i].Pos(), "borrowed %s buffer %s stored in a struct field: it must not outlive the lending scope; copy it first", b.what, b.name)
						case *ast.IndexExpr:
							pass.Reportf(n.Rhs[i].Pos(), "borrowed %s buffer %s stored in a map or slice element: it must not outlive the lending scope; copy it first", b.what, b.name)
						case *ast.Ident:
							if obj, ok := pass.TypesInfo.Uses[tgt].(*types.Var); ok && obj.Parent() == pass.Pkg.Scope() {
								pass.Reportf(n.Rhs[i].Pos(), "borrowed %s buffer %s stored in package-level variable %s: it must not outlive the lending scope; copy it first", b.what, b.name, tgt.Name)
							}
						}
					}
				}
			}
		case *ast.SendStmt:
			if b, ok := isBorrowed(n.Value); ok {
				pass.Reportf(n.Value.Pos(), "borrowed %s buffer %s sent on a channel: the receiver outlives the borrow; copy it first", b.what, b.name)
			}
		case *ast.CallExpr:
			if lintutil.IsPkgFunc(lintutil.Callee(pass.TypesInfo, n), protoPkg, "PutMsg") && len(n.Args) == 1 {
				if b, ok := isBorrowed(n.Args[0]); ok && b.what == lentMsg {
					pass.Reportf(n.Args[0].Pos(), "PutMsg on the %s %s: the client owns it and reuses it for the next frame", b.what, b.name)
				}
			}
			fn, _ := ast.Unparen(n.Fun).(*ast.Ident)
			if fn == nil || len(n.Args) == 0 {
				return true
			}
			if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
				return true
			}
			switch fn.Name {
			case "copy":
				if b, ok := isBorrowed(n.Args[0]); ok && b.what != lentReq {
					pass.Reportf(n.Args[0].Pos(), "copy into borrowed %s buffer %s: the view is immutable; use a copying accessor", b.what, b.name)
				}
			case "append":
				if b, ok := isBorrowed(n.Args[0]); ok && b.what != lentReq {
					pass.Reportf(n.Args[0].Pos(), "append to borrowed %s buffer %s may write its backing array: build a fresh slice instead", b.what, b.name)
				}
			}
		}
		return true
	})
}
