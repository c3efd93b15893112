package engine

import (
	"fmt"
	"strconv"
	"strings"

	"microadapt/internal/core"
	"microadapt/internal/storage"
	"microadapt/internal/vector"
)

// Table is an in-memory column store relation: full-length column vectors
// plus a schema. It is both the scan source and the materialization target.
// A table may additionally be resident in compressed columnar form (Enc),
// in which case plans scan it through adaptive decompression primitives
// instead of the zero-copy flat scan.
type Table struct {
	Name   string
	Sch    vector.Schema
	Cols   []*vector.Vector
	RowCnt int

	// Enc is the compressed-resident form of the table, nil for flat-only
	// tables. Set it through EncodeTable.
	Enc *storage.EncodedTable
}

// Encoded reports whether the table is resident in compressed form.
func (t *Table) Encoded() bool { return t.Enc != nil }

// NewTable builds a table; all columns must have equal lengths.
func NewTable(name string, sch vector.Schema, cols []*vector.Vector) *Table {
	if len(sch) != len(cols) {
		panic("engine.NewTable: schema/column count mismatch")
	}
	rows := 0
	if len(cols) > 0 {
		rows = cols[0].Len()
		for _, c := range cols[1:] {
			if c.Len() != rows {
				panic("engine.NewTable: column length mismatch in " + name)
			}
		}
	}
	return &Table{Name: name, Sch: sch, Cols: cols, RowCnt: rows}
}

// Rows returns the number of tuples.
func (t *Table) Rows() int { return t.RowCnt }

// Slice returns a zero-copy view of rows [lo, hi), clamped to the table.
// The view is flat (no compressed-resident form) regardless of t's.
func (t *Table) Slice(lo, hi int) *Table {
	if lo < 0 {
		lo = 0
	}
	if hi > t.RowCnt {
		hi = t.RowCnt
	}
	if hi < lo {
		hi = lo
	}
	cols := make([]*vector.Vector, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = c.Slice(lo, hi)
	}
	return NewTable(t.Name, t.Sch, cols)
}

// Col returns the named column vector.
func (t *Table) Col(name string) *vector.Vector { return t.Cols[t.Sch.MustIndexOf(name)] }

// Project returns a table view with only the named columns (zero copy).
func (t *Table) Project(names ...string) *Table {
	sch := make(vector.Schema, len(names))
	cols := make([]*vector.Vector, len(names))
	for i, n := range names {
		idx := t.Sch.MustIndexOf(n)
		sch[i] = t.Sch[idx]
		cols[i] = t.Cols[idx]
	}
	return NewTable(t.Name, sch, cols)
}

// Rename returns a view of the table with columns renamed per the map
// (zero copy); names absent from the map are kept.
func Rename(t *Table, names map[string]string) *Table {
	sch := make(vector.Schema, len(t.Sch))
	copy(sch, t.Sch)
	for i := range sch {
		if nn, ok := names[sch[i].Name]; ok {
			sch[i].Name = nn
		}
	}
	return NewTable(t.Name, sch, t.Cols)
}

// Scan streams a table — or a contiguous row range of it — in vector-size
// batches (zero-copy column slices). The batch and its vector headers are
// the scan's own: every Next re-points them at the next row range.
type Scan struct {
	sess   *core.Session
	table  *Table
	cols   []int // column indexes to produce; nil = all
	sch    vector.Schema
	lo, hi int // row range [lo, hi)
	pos    int

	out  vector.Batch
	hdrs []vector.Vector // one view header per output column
}

// NewScan builds a scan of the named columns (all columns when empty).
func NewScan(sess *core.Session, t *Table, cols ...string) *Scan {
	return NewRangeScan(sess, t, 0, t.Rows(), cols...)
}

// NewRangeScan builds a scan restricted to rows [lo, hi) — the morsel of
// one pipeline partition. Bounds are clamped to the table.
func NewRangeScan(sess *core.Session, t *Table, lo, hi int, cols ...string) *Scan {
	if lo < 0 {
		lo = 0
	}
	if hi > t.Rows() {
		hi = t.Rows()
	}
	if hi < lo {
		hi = lo
	}
	s := &Scan{sess: sess, table: t, lo: lo, hi: hi, pos: lo}
	if len(cols) == 0 {
		s.sch = t.Sch
		for i := range t.Sch {
			s.cols = append(s.cols, i)
		}
		return s
	}
	for _, name := range cols {
		idx := t.Sch.MustIndexOf(name)
		s.cols = append(s.cols, idx)
		s.sch = append(s.sch, t.Sch[idx])
	}
	return s
}

// Schema implements Operator.
func (s *Scan) Schema() vector.Schema { return s.sch }

// Open implements Operator.
func (s *Scan) Open() error {
	s.pos = s.lo
	return nil
}

// Next implements Operator.
func (s *Scan) Next() (*vector.Batch, error) {
	if s.pos >= s.hi {
		return nil, nil
	}
	lo := s.pos
	hi := lo + s.sess.VectorSize
	if hi > s.hi {
		hi = s.hi
	}
	s.pos = hi
	if s.hdrs == nil {
		s.hdrs = make([]vector.Vector, len(s.cols))
		s.out.Cols = make([]*vector.Vector, len(s.cols))
		for i := range s.hdrs {
			s.out.Cols[i] = &s.hdrs[i]
		}
	}
	for i, ci := range s.cols {
		s.table.Cols[ci].SliceInto(&s.hdrs[i], lo, hi)
	}
	s.out.N, s.out.Sel = hi-lo, nil
	chargeOp(s.sess, perBatchOverhead)
	return &s.out, nil
}

// Close implements Operator.
func (s *Scan) Close() {}

// Materialize drains an operator into a Table (selection applied). It
// streams: every batch's live tuples are gathered straight into growable
// column accumulators — no per-batch vector allocation and no retained
// compacted copies, unlike the old Run-then-copy implementation. (Drain
// loops that need whole compacted batches rather than columns reuse a
// destination via vector.Batch.CompactInto instead.)
func Materialize(op Operator) (*Table, error) {
	sch := op.Schema()
	acc := make([]colAcc, len(sch))
	for i, c := range sch {
		acc[i].t = c.Type
	}
	err := Drain(op, func(b *vector.Batch) error {
		for ci := range sch {
			acc[ci].appendLive(b.Cols[ci], b.Sel, b.N)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cols := make([]*vector.Vector, len(sch))
	for i := range acc {
		cols[i] = acc[i].vector()
	}
	return NewTable("materialized", sch, cols), nil
}

// colAcc accumulates one output column of a streaming materialization.
type colAcc struct {
	t   vector.Type
	i16 []int16
	i32 []int32
	i64 []int64
	f64 []float64
	str []string
}

// appendLive gathers the live tuples of one source vector (per sel; all n
// when sel is nil) onto the accumulator: capacity grows once per batch and
// the gather runs as indexed stores, so the whole drain does one amortized
// copy of the live data.
func (a *colAcc) appendLive(v *vector.Vector, sel []int32, n int) {
	switch a.t {
	case vector.I16:
		a.i16 = gatherLive(a.i16, v.I16(), sel, n)
	case vector.I32:
		a.i32 = gatherLive(a.i32, v.I32(), sel, n)
	case vector.I64:
		a.i64 = gatherLive(a.i64, v.I64(), sel, n)
	case vector.F64:
		a.f64 = gatherLive(a.f64, v.F64(), sel, n)
	case vector.Str:
		a.str = gatherLive(a.str, v.Str(), sel, n)
	}
}

// gatherLive appends the selected positions of src (all n when sel is nil)
// to dst, growing dst's capacity geometrically.
func gatherLive[T any](dst []T, src []T, sel []int32, n int) []T {
	if sel == nil {
		return append(dst, src[:n]...)
	}
	off := len(dst)
	need := off + len(sel)
	if need > cap(dst) {
		grown := make([]T, need, growCap(cap(dst), need))
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:need]
	}
	out := dst[off:]
	for j, i := range sel {
		out[j] = src[i]
	}
	return dst
}

// growCap doubles capacity until it covers need.
func growCap(c, need int) int {
	if c < 64 {
		c = 64
	}
	for c < need {
		c *= 2
	}
	return c
}

func (a *colAcc) vector() *vector.Vector {
	switch a.t {
	case vector.I16:
		if a.i16 == nil {
			a.i16 = []int16{}
		}
		return vector.FromI16(a.i16)
	case vector.I32:
		if a.i32 == nil {
			a.i32 = []int32{}
		}
		return vector.FromI32(a.i32)
	case vector.I64:
		if a.i64 == nil {
			a.i64 = []int64{}
		}
		return vector.FromI64(a.i64)
	case vector.F64:
		if a.f64 == nil {
			a.f64 = []float64{}
		}
		return vector.FromF64(a.f64)
	default:
		if a.str == nil {
			a.str = []string{}
		}
		return vector.FromStr(a.str)
	}
}

// TableString renders up to maxRows rows of a table (maxRows <= 0 renders
// all of them) for debugging, the example programs, and the result
// fingerprints of the equivalence tests and the concurrent service. It uses
// a strings.Builder throughout: naive string concatenation is quadratic in
// the rendered size, which turned whole-table fingerprints of generated
// lineitem tables into a multi-minute operation.
func TableString(t *Table, maxRows int) string {
	var out strings.Builder
	for i := range t.Sch {
		if i > 0 {
			out.WriteByte('\t')
		}
		out.WriteString(t.Sch[i].Name)
	}
	out.WriteByte('\n')
	n := t.Rows()
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for r := 0; r < n; r++ {
		for i, c := range t.Cols {
			if i > 0 {
				out.WriteByte('\t')
			}
			switch c.Type() {
			case vector.I16, vector.I32, vector.I64:
				out.WriteString(strconv.FormatInt(c.GetI64(r), 10))
			case vector.F64:
				out.WriteString(strconv.FormatFloat(c.GetF64(r), 'f', 4, 64))
			case vector.Str:
				out.WriteString(c.GetStr(r))
			}
		}
		out.WriteByte('\n')
	}
	if t.Rows() > n {
		fmt.Fprintf(&out, "... (%d rows total)\n", t.Rows())
	}
	return out.String()
}
