package vector

import "testing"

func selBatch() *Batch {
	a := FromI64([]int64{10, 11, 12, 13, 14, 15})
	s := FromStr([]string{"a", "b", "c", "d", "e", "f"})
	return &Batch{N: 6, Sel: []int32{1, 3, 5}, Cols: []*Vector{a, s}}
}

func TestCompactIntoFresh(t *testing.T) {
	out := selBatch().CompactInto(nil)
	if out.N != 3 || out.Sel != nil {
		t.Fatalf("compacted N=%d Sel=%v", out.N, out.Sel)
	}
	if out.Cols[0].I64()[0] != 11 || out.Cols[0].I64()[2] != 15 {
		t.Errorf("i64 compact wrong: %v", out.Cols[0].I64()[:3])
	}
	if out.Cols[1].Str()[1] != "d" {
		t.Errorf("str compact wrong: %v", out.Cols[1].Str()[:3])
	}
}

func TestCompactIntoReusesDestination(t *testing.T) {
	dst := selBatch().CompactInto(nil)
	v0, v1 := dst.Cols[0], dst.Cols[1]
	b2 := &Batch{N: 4, Sel: []int32{0, 2}, Cols: []*Vector{
		FromI64([]int64{1, 2, 3, 4}),
		FromStr([]string{"w", "x", "y", "z"}),
	}}
	out := b2.CompactInto(dst)
	if out != dst || out.Cols[0] != v0 || out.Cols[1] != v1 {
		t.Error("CompactInto allocated fresh vectors despite sufficient capacity")
	}
	if out.N != 2 || out.Cols[0].I64()[0] != 1 || out.Cols[0].I64()[1] != 3 {
		t.Errorf("reused compact wrong: N=%d %v", out.N, out.Cols[0].I64()[:2])
	}
	if out.Cols[1].Str()[1] != "y" {
		t.Errorf("reused str compact wrong: %v", out.Cols[1].Str()[:2])
	}
}

func TestCompactIntoGrowsUndersizedDestination(t *testing.T) {
	dst := (&Batch{N: 2, Sel: []int32{0}, Cols: []*Vector{FromI64([]int64{7, 8})}}).CompactInto(nil)
	big := &Batch{N: 5, Cols: []*Vector{FromI64([]int64{1, 2, 3, 4, 5})}}
	out := big.CompactInto(dst)
	if out.N != 5 || out.Cols[0].Len() != 5 || out.Cols[0].I64()[4] != 5 {
		t.Errorf("grown compact wrong: N=%d len=%d", out.N, out.Cols[0].Len())
	}
}

func TestCompactIntoNoSelectionCopies(t *testing.T) {
	src := FromI64([]int64{1, 2, 3})
	b := &Batch{N: 3, Cols: []*Vector{src}}
	out := b.CompactInto(nil)
	if out.Cols[0] == src {
		t.Fatal("CompactInto aliased the source vector")
	}
	out.Cols[0].I64()[0] = 99
	if src.I64()[0] != 1 {
		t.Error("mutation leaked into source")
	}
}
