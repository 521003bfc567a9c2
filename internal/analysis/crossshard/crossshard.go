// Package crossshard verifies the mesh sharding invariant at compile
// time: a callback scheduled on one cell's Sim runs inside that cell's
// shard and may touch other cells only through the Mesh outbox/barrier
// API (Mesh.Send), never by calling into another cell's Sim directly.
// RunSharded executes cells on separate goroutines between barriers, so a
// direct cross-cell touch is a data race and a serial≡sharded divergence —
// the exact class of bug the executor-equivalence harness exists to catch
// at runtime, promoted here to a compile-time check (DESIGN.md §14).
//
// # What it proves
//
// The analyzer runs the analysis/flow dataflow over each function to
// track which cell every *netsim.Sim variable originates from: a
// variable assigned `mesh.Cell(3)` has origin cell 3; copies propagate
// the origin; joining paths that disagree, reassignment, or a
// non-constant cell index degrade the origin to unknown. A function
// literal passed to a scheduling or registration method (Schedule, After,
// Every, RegisterFunc, RegisterReceiver) of a Sim with known origin N —
// directly or through a handler conversion such as netsim.Func(...) — is a
// worker context for cell N: any reference inside it to a Sim variable
// whose origin is a *known, different* cell M is reported.
//
// Unknown origins are never reported — the check is deliberately
// one-sided. Loop-driven topology wiring (`sim := mesh.Cell(s)` for a
// loop variable s) stays quiet because s is not a constant; what cannot
// hide is the literal cross-wiring mistake `mesh.Cell(0)` inside a
// worker scheduled on `mesh.Cell(1)`.
//
// The escape hatch, for deliberate cross-cell access (setup-time code
// that happens to sit in a closure, single-threaded harness tricks):
//
//	//lint:crossshard cross-shard-ok -- <why this access cannot race>
package crossshard

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the crossshard pass.
var Analyzer = &analysis.Analyzer{
	Name:   "crossshard",
	Doc:    "callbacks scheduled on one cell's Sim must not touch another cell's Sim except through the Mesh outbox API",
	Claims: []string{"cross-shard-ok"},
	Run:    run,
}

// schedulingMethods are the Sim methods whose func-literal argument runs
// inside that Sim's shard: the scheduling and registration entry points.
var schedulingMethods = map[string]bool{
	"Schedule":         true,
	"After":            true,
	"Every":            true,
	"RegisterFunc":     true,
	"RegisterReceiver": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsSimPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					analyze(pass, n.Body)
				}
			case *ast.FuncLit:
				// A closure's own locals get their own dataflow; worker
				// literals nested inside it are found on this pass too.
				analyze(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func analyze(pass *analysis.Pass, body *ast.BlockStmt) {
	cf := &cellFlow{pass: pass}
	if !bodyMentionsCell(body) {
		return
	}
	g := flow.Build(body)
	if g.Unsupported != nil {
		// No Cell-origin facts survive imprecise control flow; every origin
		// would be unknown anyway, and unknown is never reported.
		return
	}
	res := flow.Fixpoint(g, cf)
	for _, b := range g.Blocks {
		in := res.In[b]
		if in == nil {
			continue
		}
		cf.transfer(b, in.(origins), pass)
	}
}

// origin is one variable's provenance: the mesh cell it was obtained
// from, when that is a compile-time constant.
type origin struct {
	cell  int64
	known bool
}

// origins is the lattice element: *Sim-typed object → provenance.
type origins map[types.Object]origin

var unknown = origin{}

// cellFlow implements flow.Transfers for the cell-origin analysis.
type cellFlow struct {
	pass *analysis.Pass
}

func (cf *cellFlow) Entry() any { return origins{} }

func (cf *cellFlow) Join(a, b any) any {
	am, bm := a.(origins), b.(origins)
	out := make(origins, len(am)+len(bm))
	for k, v := range am {
		out[k] = v
	}
	for k, v := range bm {
		if old, ok := out[k]; ok && (old.known != v.known || old.cell != v.cell) {
			out[k] = unknown // paths disagree
			continue
		}
		out[k] = v
	}
	return out
}

func (cf *cellFlow) Equal(a, b any) bool {
	am, bm := a.(origins), b.(origins)
	if len(am) != len(bm) {
		return false
	}
	for k, v := range am {
		if w, ok := bm[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func (cf *cellFlow) Transfer(b *flow.Block, in any) any {
	return cf.transfer(b, in.(origins), nil)
}

// transfer executes one block over a copy of the in-state; with a non-nil
// pass it also checks every worker literal registered in the block
// against the state at the registration point.
func (cf *cellFlow) transfer(b *flow.Block, in origins, report *analysis.Pass) origins {
	s := make(origins, len(in))
	for k, v := range in {
		s[k] = v
	}
	for _, n := range b.Nodes {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				cf.assignOne(s, as.Lhs[i], as.Rhs[i])
			}
		}
		if report != nil {
			cf.checkWorkers(s, n, report)
		}
	}
	return s
}

// assignOne updates the origin of a *Sim-typed identifier destination.
func (cf *cellFlow) assignOne(s origins, lhs, rhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := cf.objOf(id)
	if obj == nil || !isNetsimSimPtr(obj.Type()) {
		return
	}
	if o, ok := cf.originOf(s, rhs); ok {
		s[obj] = o
		return
	}
	s[obj] = unknown // reassigned from something we cannot place
}

// originOf computes the provenance of an expression: a Cell(const) call,
// or a copy of an already-tracked variable.
func (cf *cellFlow) originOf(s origins, e ast.Expr) (origin, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := cf.objOf(e); obj != nil {
			if o, ok := s[obj]; ok {
				return o, true
			}
		}
	case *ast.CallExpr:
		if cell, ok := cf.cellCall(e); ok {
			return cell, true
		}
	case *ast.ParenExpr:
		return cf.originOf(s, e.X)
	}
	return unknown, false
}

// cellCall recognizes Mesh.Cell(i): origin known iff i is a constant.
func (cf *cellFlow) cellCall(call *ast.CallExpr) (origin, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Cell" || len(call.Args) != 1 {
		return unknown, false
	}
	if !isNetsimSimPtr(cf.exprType(call)) {
		return unknown, false
	}
	tv, ok := cf.pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return unknown, true // Cell of a runtime index: tracked but unknown
	}
	c, exact := constant.Int64Val(tv.Value)
	if !exact {
		return unknown, true
	}
	return origin{cell: c, known: true}, true
}

// checkWorkers finds scheduling calls in the node and validates each
// worker literal's body against the current origin state.
func (cf *cellFlow) checkWorkers(s origins, n ast.Node, pass *analysis.Pass) {
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !schedulingMethods[sel.Sel.Name] {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj := cf.objOf(recv)
		if obj == nil || !isNetsimSimPtr(obj.Type()) {
			return true
		}
		home, tracked := s[obj]
		if !tracked || !home.known {
			return true // cannot place the worker's shard: stay quiet
		}
		for _, arg := range call.Args {
			if lit := cf.workerLit(arg); lit != nil {
				cf.checkWorkerBody(s, lit.Body, home.cell, pass)
			}
		}
		return true
	})
}

// workerLit returns the function literal an argument carries: the literal
// itself, or one wrapped in a conversion to a handler type (netsim.Func,
// netsim.ReceiverFunc).
func (cf *cellFlow) workerLit(arg ast.Expr) *ast.FuncLit {
	if call, ok := arg.(*ast.CallExpr); ok && len(call.Args) == 1 && cf.pass.TypesInfo.Types[call.Fun].IsType() {
		arg = call.Args[0]
	}
	lit, _ := arg.(*ast.FuncLit)
	return lit
}

// checkWorkerBody reports every reference inside a worker closure to a
// Sim variable that provably belongs to a different cell. The origin
// state is the one at the registration point — the repository wires
// topology once at setup, so origins do not change between registration
// and execution.
func (cf *cellFlow) checkWorkerBody(s origins, body *ast.BlockStmt, home int64, pass *analysis.Pass) {
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := cf.pass.TypesInfo.Uses[id]
		if obj == nil || !isNetsimSimPtr(obj.Type()) {
			return true
		}
		if o, tracked := s[obj]; tracked && o.known && o.cell != home {
			pass.Reportf(id.Pos(),
				"worker scheduled on cell %d touches cell %d's Sim directly; cross-cell effects must go through Mesh.Send (the outbox respects the lookahead barrier, a direct call races)",
				home, o.cell)
		}
		return true
	})
}

func (cf *cellFlow) objOf(id *ast.Ident) types.Object {
	if obj := cf.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return cf.pass.TypesInfo.Uses[id]
}

func (cf *cellFlow) exprType(e ast.Expr) types.Type {
	if tv, ok := cf.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isNetsimSimPtr reports whether t is *Sim for netsim's Sim type.
func isNetsimSimPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == "Sim" && analysis.IsNetsimPackage(obj.Pkg().Path())
}

// bodyMentionsCell is the cheap pre-filter: no Cell selector, no
// origins, nothing to report.
func bodyMentionsCell(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Cell" {
			found = true
			return false
		}
		return true
	})
	return found
}
