// Package expr is the vectorized expression evaluator: it recursively
// evaluates expression trees over batches, calling map primitives through
// per-node primitive instances. This is the component the paper modified to
// host the learning algorithm — every Call node resolves its primitive in
// the dictionary and lets the instance's chooser pick a flavor per call.
package expr

import (
	"fmt"
	"slices"

	"microadapt/internal/core"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// Node is a typed expression over a batch's columns. Eval returns a vector
// of length batch.N whose live positions (batch.Sel) hold the results;
// positions outside the selection are undefined (Figure 7 left).
type Node interface {
	// Type returns the result type under the given input schema.
	Type(s vector.Schema) vector.Type
	// Eval computes the expression for the batch.
	Eval(ev *Evaluator, b *vector.Batch) *vector.Vector
}

// Col references an input column by index.
type Col struct{ Idx int }

// Type implements Node.
func (c *Col) Type(s vector.Schema) vector.Type { return s[c.Idx].Type }

// Eval implements Node.
func (c *Col) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector { return b.Cols[c.Idx] }

// ConstI64 is an int64 literal.
type ConstI64 struct{ V int64 }

// Type implements Node.
func (c *ConstI64) Type(vector.Schema) vector.Type { return vector.I64 }

// Eval implements Node: a one-tuple scratch vector holding the literal.
func (c *ConstI64) Eval(ev *Evaluator, _ *vector.Batch) *vector.Vector {
	v := ev.scratch(vector.I64, 1)
	v.I64()[0] = c.V
	return v
}

// ConstI32 is an int32 literal.
type ConstI32 struct{ V int32 }

// Type implements Node.
func (c *ConstI32) Type(vector.Schema) vector.Type { return vector.I32 }

// Eval implements Node: a one-tuple scratch vector holding the literal.
func (c *ConstI32) Eval(ev *Evaluator, _ *vector.Batch) *vector.Vector {
	v := ev.scratch(vector.I32, 1)
	v.I32()[0] = c.V
	return v
}

// ConstF64 is a float64 literal.
type ConstF64 struct{ V float64 }

// Type implements Node.
func (c *ConstF64) Type(vector.Schema) vector.Type { return vector.F64 }

// Eval implements Node: a one-tuple scratch vector holding the literal.
func (c *ConstF64) Eval(ev *Evaluator, _ *vector.Batch) *vector.Vector {
	v := ev.scratch(vector.F64, 1)
	v.F64()[0] = c.V
	return v
}

// isConst reports whether a node is a literal (evaluates to a 1-tuple
// vector used as a _val parameter).
func isConst(n Node) bool {
	switch n.(type) {
	case *ConstI64, *ConstI32, *ConstF64:
		return true
	}
	return false
}

// BinOp is an arithmetic expression (+, -, *, /) over operands of the same
// numeric type; it maps to one primitive instance.
type BinOp struct {
	Op   string
	L, R Node
}

// Add returns l + r.
func Add(l, r Node) *BinOp { return &BinOp{Op: "+", L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Node) *BinOp { return &BinOp{Op: "-", L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Node) *BinOp { return &BinOp{Op: "*", L: l, R: r} }

// Div returns l / r.
func Div(l, r Node) *BinOp { return &BinOp{Op: "/", L: l, R: r} }

// Type implements Node.
func (n *BinOp) Type(s vector.Schema) vector.Type { return n.L.Type(s) }

// sig returns the map-primitive signature of the node under schema s.
func (n *BinOp) sig(s vector.Schema) string {
	shape := "col_col"
	switch {
	case isConst(n.R):
		shape = "col_val"
	case isConst(n.L):
		shape = "val_col"
	}
	return primitive.MapSig(n.Op, n.Type(s), shape)
}

// Eval implements Node.
func (n *BinOp) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	lv := n.L.Eval(ev, b)
	rv := n.R.Eval(ev, b)
	site := ev.sites[n]
	if site == nil {
		site = ev.newSite(n, n.sig(ev.Schema))
	}
	res := ev.scratch(n.Type(ev.Schema), b.N)
	call := site.call.Reset(b.N, b.Sel, lv, rv)
	call.Res = res
	site.inst.Run(ev.Sess.Ctx, call)
	return res
}

// Widen converts an integer column to I64 (a cast map primitive in
// Vectorwise; here a fixed-cost conversion outside the flavor sets).
type Widen struct{ Child Node }

// ToI64 widens an integer expression to 64 bits.
func ToI64(n Node) Node { return &Widen{Child: n} }

// Type implements Node.
func (w *Widen) Type(vector.Schema) vector.Type { return vector.I64 }

// Eval implements Node.
func (w *Widen) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	in := w.Child.Eval(ev, b)
	if in.Type() == vector.I64 {
		return in
	}
	res := ev.scratch(vector.I64, b.N)
	primitive.WidenToI64(in, b.Sel, b.N, res)
	ev.Sess.Ctx.OperatorCycles += 0.5 * float64(b.Live())
	return res
}

// CaseInStr evaluates to Then where the string column's value is in Values,
// Else otherwise (the CASE expressions of TPC-H Q12/Q14). It is evaluated
// in plain Go: CASE maps are not part of the paper's flavor sets.
type CaseInStr struct {
	Col        Node
	Values     []string
	Then, Else int64
}

// Type implements Node.
func (n *CaseInStr) Type(vector.Schema) vector.Type { return vector.I64 }

// Eval implements Node.
func (n *CaseInStr) Eval(ev *Evaluator, b *vector.Batch) *vector.Vector {
	in := n.Col.Eval(ev, b).Str()
	res := ev.scratch(vector.I64, b.N)
	out := res.I64()
	// CASE IN lists are a handful of literals: a linear scan beats a map
	// built per batch.
	eval1 := func(i int32) {
		if slices.Contains(n.Values, in[i]) {
			out[i] = n.Then
		} else {
			out[i] = n.Else
		}
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			eval1(i)
		}
	} else {
		for i := 0; i < b.N; i++ {
			eval1(int32(i))
		}
	}
	ev.Sess.Ctx.OperatorCycles += 4 * float64(b.Live())
	return res
}

// Evaluator evaluates expressions for one operator. It owns the primitive
// call sites of its expression nodes (one instance and one reusable Call
// per node, labelled uniquely within the query) and an arena of scratch
// vectors that hold intermediate and final results.
type Evaluator struct {
	Sess   *core.Session
	Schema vector.Schema
	Prefix string // label prefix, e.g. "Q1/project0"

	sites  map[Node]*callSite
	nextID int

	slots []*vector.Vector // scratch vectors in evaluation order
	next  int              // first slot not yet handed out since Reset
}

// callSite is the primitive instance of one expression node plus the Call
// it reuses on every batch.
type callSite struct {
	inst *core.Instance
	call core.Call
}

// NewEvaluator builds an evaluator for the operator named by prefix.
func NewEvaluator(sess *core.Session, schema vector.Schema, prefix string) *Evaluator {
	return &Evaluator{Sess: sess, Schema: schema, Prefix: prefix, sites: make(map[Node]*callSite)}
}

// newSite creates the call site of an expression node, resolving its
// primitive instance under the next plan-unique label.
func (ev *Evaluator) newSite(n Node, sig string) *callSite {
	label := fmt.Sprintf("%s/%s#%d", ev.Prefix, sig, ev.nextID)
	ev.nextID++
	site := &callSite{inst: ev.Sess.Instance(sig, label)}
	ev.sites[n] = site
	return site
}

// Reset starts a new batch: scratch vectors handed out since the last
// Reset are recycled, so results of the previous batch are overwritten.
// An evaluator that is never reset hands out fresh vectors on every call.
func (ev *Evaluator) Reset() { ev.next = 0 }

// scratch returns the next scratch vector, of type t and length n. The
// nodes of a tree are evaluated in the same order on every batch, so each
// slot keeps serving the same node and reallocates only when a batch is
// wider than before.
func (ev *Evaluator) scratch(t vector.Type, n int) *vector.Vector {
	if ev.next == len(ev.slots) {
		ev.slots = append(ev.slots, nil)
	}
	v := vector.Reuse(ev.slots[ev.next], t, n)
	ev.slots[ev.next] = v
	ev.next++
	return v
}
