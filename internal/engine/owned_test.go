package engine

import (
	"testing"

	"microadapt/internal/expr"
	"microadapt/internal/vector"
)

// TestSteadyStateNextAllocatesNothing pins the operator-owned execution
// model: once every operator has sized its batch, vectors, selection
// buffers and calls, pulling a batch through Scan → Select → Project (a
// map primitive with a constant) → hash-join probe allocates nothing.
func TestSteadyStateNextAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := testSession(t)
	const rows = 16 * 400
	ids := make([]int32, rows)
	fks := make([]int64, rows)
	vals := make([]int64, rows)
	for i := range ids {
		ids[i] = int32(i)
		fks[i] = int64(i % 100)
		vals[i] = int64(i * 10)
	}
	fact := NewTable("fact",
		vector.Schema{{Name: "id", Type: vector.I32}, {Name: "fk", Type: vector.I64}, {Name: "val", Type: vector.I64}},
		[]*vector.Vector{vector.FromI32(ids), vector.FromI64(fks), vector.FromI64(vals)})
	keys := make([]int64, 50)
	names := make([]string, 50)
	for i := range keys {
		keys[i] = int64(i * 2)
		names[i] = string(rune('a' + i%26))
	}
	dim := NewTable("dim",
		vector.Schema{{Name: "key", Type: vector.I64}, {Name: "name", Type: vector.Str}},
		[]*vector.Vector{vector.FromI64(keys), vector.FromStr(names)})

	sel := NewSelect(s, NewScan(s, fact), "sel", CmpVal(1, "<", 80))
	proj := NewProject(s, sel, "proj", Keep("fk", 1),
		ProjExpr{Name: "v3", Expr: expr.Mul(&expr.Col{Idx: 2}, &expr.ConstI64{V: 3})})
	join := NewHashJoin(s, NewScan(s, dim), proj, "join", "key", "fk", []string{"name"})
	if err := join.Open(); err != nil {
		t.Fatal(err)
	}
	defer join.Close()
	next := func() {
		b, err := join.Next()
		if err != nil || b == nil {
			t.Fatalf("Next = %v, %v before the end of the probe side", b, err)
		}
	}
	for i := 0; i < 4; i++ {
		next() // first batches size the operator-owned state
	}
	if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
		t.Errorf("steady-state Next allocates %v times per batch, want 0", allocs)
	}
}

// poisonOp streams n rows of 0..n-1 in batches of size through a single
// vector it owns, overwriting it on every Next and poisoning it on Close —
// the strongest form of the operator-owned batch contract.
type poisonOp struct {
	n, size, pos int
	vec          *vector.Vector
	sel          []int32
	out          vector.Batch
}

func (p *poisonOp) Schema() vector.Schema { return vector.Schema{{Name: "x", Type: vector.I64}} }

func (p *poisonOp) Open() error {
	p.pos = 0
	p.vec = vector.New(vector.I64, p.size)
	p.sel = make([]int32, p.size)
	p.out.Cols = []*vector.Vector{p.vec}
	return nil
}

func (p *poisonOp) Next() (*vector.Batch, error) {
	if p.pos >= p.n {
		return nil, nil
	}
	k := min(p.size, p.n-p.pos)
	vals := p.vec.I64()
	for i := 0; i < k; i++ {
		vals[i] = int64(p.pos + i)
	}
	p.vec.SetLen(k)
	p.pos += k
	// Every other batch carries a selection keeping all its rows, so both
	// the compacting and the copying paths of Run see the reuse.
	var sel vector.Sel
	if p.pos/p.size%2 == 0 {
		sel = p.sel[:k]
		for i := range sel {
			sel[i] = int32(i)
		}
	}
	p.out.N, p.out.Sel = k, sel
	return &p.out, nil
}

func (p *poisonOp) Close() {
	for i := range p.vec.I64() {
		p.vec.I64()[i] = -1
	}
	for i := range p.sel {
		p.sel[i] = 0
	}
}

// TestRunAndMaterializeOwnTheirOutput checks that what Run and Materialize
// return never aliases operator-owned storage: the operator keeps
// overwriting its buffers after each batch is handed over (and poisons
// them on Close), yet every retained batch and the materialized table
// still hold their own rows.
func TestRunAndMaterializeOwnTheirOutput(t *testing.T) {
	batches, err := Run(&poisonOp{n: 40, size: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 || RowCount(batches) != 40 {
		t.Fatalf("Run = %d batches, %d rows; want 3 batches, 40 rows", len(batches), RowCount(batches))
	}
	want := int64(0)
	for bi, b := range batches {
		if b.Sel != nil {
			t.Errorf("batch %d keeps a selection vector", bi)
		}
		for _, v := range b.Cols[0].I64()[:b.N] {
			if v != want {
				t.Fatalf("batch %d: value %d, want %d (aliased operator storage)", bi, v, want)
			}
			want++
		}
	}

	tab, err := Materialize(&poisonOp{n: 40, size: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 40 {
		t.Fatalf("Materialize rows = %d, want 40", tab.Rows())
	}
	for r := 0; r < tab.Rows(); r++ {
		if got := tab.Cols[0].GetI64(r); got != int64(r) {
			t.Fatalf("row %d = %d, want %d (aliased operator storage)", r, got, r)
		}
	}

	// The same through real operators: Project's results live in its
	// evaluator's scratch vectors and Select's selection in its ping-pong
	// buffers, both rewritten on every batch.
	s := testSession(t)
	op := NewProject(s, NewSelect(s, NewScan(s, numbersTable(40)), "sel", CmpVal(0, ">=", 4)), "proj",
		ProjExpr{Name: "v2", Expr: expr.Mul(&expr.Col{Idx: 1}, &expr.ConstI64{V: 2})})
	batches, err = Run(op)
	if err != nil {
		t.Fatal(err)
	}
	id := int64(4)
	for _, b := range batches {
		for _, v := range b.Cols[0].I64()[:b.N] {
			if v != id*20 {
				t.Fatalf("row for id %d = %d, want %d", id, v, id*20)
			}
			id++
		}
	}
	if id != 40 {
		t.Errorf("Run produced rows up to id %d, want 40", id)
	}
}
