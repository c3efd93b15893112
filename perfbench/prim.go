package main

import (
	"fmt"
	"sort"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/tpch"
	"microadapt/internal/vector"
)

// primVectorSize is the tuples per call of the kernel probe.
const primVectorSize = 1024

// primCase is one primitive signature timed on lineitem columns.
type primCase struct {
	sig  string
	in   func(li *lineitemCols) []*vector.Vector // full-length inputs; constants have length 1
	out  vector.Type                             // result type of map primitives
	sel  bool                                    // selection primitive: writes SelOut
	role string                                  // which probe metric the default flavors report, if any
}

type lineitemCols struct{ quantity, orderkey, price, discount, shipdate *vector.Vector }

var primCases = []primCase{
	{sig: primitive.SelSig("<", vector.I32, false), sel: true, role: "select",
		in: func(li *lineitemCols) []*vector.Vector { return []*vector.Vector{li.quantity, vector.ConstI32(25)} }},
	{sig: primitive.SelSig(">=", vector.I32, false), sel: true,
		in: func(li *lineitemCols) []*vector.Vector { return []*vector.Vector{li.shipdate, vector.ConstI32(1200)} }},
	{sig: primitive.SelSig("<", vector.I64, true), sel: true,
		in: func(li *lineitemCols) []*vector.Vector { return []*vector.Vector{li.discount, li.price} }},
	{sig: primitive.MapSig("*", vector.I64, "col_col"), out: vector.I64, role: "map",
		in: func(li *lineitemCols) []*vector.Vector { return []*vector.Vector{li.price, li.discount} }},
	{sig: primitive.MapSig("+", vector.I32, "col_val"), out: vector.I32,
		in: func(li *lineitemCols) []*vector.Vector { return []*vector.Vector{li.quantity, vector.ConstI32(1)} }},
	{sig: "map_hash_sint_col", out: vector.I64, role: "hash",
		in: func(li *lineitemCols) []*vector.Vector { return []*vector.Vector{li.orderkey} }},
	{sig: "map_hash_slng_col", out: vector.I64,
		in: func(li *lineitemCols) []*vector.Vector { return []*vector.Vector{li.price} }},
}

// flavorTiming is one flavor's measured real and virtual cost.
type flavorTiming struct {
	flavor  *core.Flavor
	nsTuple float64 // median real ns per tuple over the passes
	cycles  float64 // virtual cycles of one pass, from the flavor's cost model
}

// primProbe is the outcome of the kernel probe.
type primProbe struct {
	selectBranchNs, selectNoBranchNs, mapNs, hashNs float64
	agreePct                                        float64
	agree, timed                                    int
}

// probePrimitives calls every registered flavor's PrimFn of each probe
// signature over the lineitem columns, vector by vector, and times it in
// real nanoseconds. A signature's virtual and real rankings agree when
// the flavor with the fewest virtual cycles runs within 5% of the
// fastest real time; flavors that differ only in the simulated compiler
// or unrolling run the same Go code, so a tighter test would only
// measure noise among them.
func probePrimitives(db *tpch.DB, passes int) (primProbe, error) {
	li := db.Lineitem
	cols := &lineitemCols{
		quantity: li.Col("l_quantity"), orderkey: li.Col("l_orderkey"),
		price: li.Col("l_extendedprice"), discount: li.Col("l_discount"), shipdate: li.Col("l_shipdate"),
	}
	dict := primitive.NewDictionary(primitive.Everything())
	ctx := core.NewExecCtx(hw.Machine1())
	var pp primProbe
	for _, pc := range primCases {
		prim, ok := dict.Lookup(pc.sig)
		if !ok {
			return pp, fmt.Errorf("primitive probe: no signature %s", pc.sig)
		}
		var timings []flavorTiming
		for _, fl := range prim.Flavors {
			timings = append(timings, timeFlavor(ctx, prim, fl, pc, cols, li.Rows(), passes))
		}
		pick := func(tags map[string]string) float64 {
			for _, ft := range timings {
				match := true
				for k, v := range tags {
					match = match && ft.flavor.Tag(k) == v
				}
				if match {
					return ft.nsTuple
				}
			}
			return 0
		}
		switch pc.role {
		case "select":
			pp.selectBranchNs = pick(map[string]string{"branch": "y", "compiler": "gcc", "unroll": "u8"})
			pp.selectNoBranchNs = pick(map[string]string{"branch": "n", "compiler": "gcc", "unroll": "u8"})
		case "map":
			pp.mapNs = pick(map[string]string{"full": "n", "compiler": "gcc", "unroll": "u8"})
		case "hash":
			pp.hashNs = pick(map[string]string{"compiler": "gcc", "unroll": "u8"})
		}
		vbest, rbest := timings[0], timings[0].nsTuple
		for _, ft := range timings {
			if ft.cycles < vbest.cycles {
				vbest = ft
			}
			rbest = min(rbest, ft.nsTuple)
		}
		pp.timed++
		if vbest.nsTuple <= 1.05*rbest {
			pp.agree++
		}
	}
	pp.agreePct = 100 * float64(pp.agree) / float64(pp.timed)
	return pp, nil
}

// timeFlavor runs one flavor over the whole column passes times and
// returns its median real ns per tuple and the virtual cycles of a pass.
func timeFlavor(ctx *core.ExecCtx, prim *core.Primitive, fl *core.Flavor, pc primCase,
	cols *lineitemCols, rows, passes int) flavorTiming {
	inputs := pc.in(cols)
	inst := core.NewInstance(prim, "perfbench/"+pc.sig, nil)
	selOut := make([]int32, primVectorSize)
	var res *vector.Vector
	if !pc.sel {
		res = vector.New(pc.out, primVectorSize)
	}
	in := make([]*vector.Vector, len(inputs))
	var perPass []float64
	var cycles float64
	for p := 0; p < passes; p++ {
		cycles = 0
		start := time.Now()
		for lo := 0; lo < rows; lo += primVectorSize {
			hi := min(lo+primVectorSize, rows)
			for i, v := range inputs {
				if v.Len() == 1 {
					in[i] = v
				} else {
					in[i] = v.Slice(lo, hi)
				}
			}
			c := core.Call{N: hi - lo, In: in, Res: res, SelOut: selOut, Inst: inst}
			_, cyc := fl.Fn(ctx, &c)
			cycles += cyc
		}
		perPass = append(perPass, float64(time.Since(start))/float64(rows))
	}
	sort.Float64s(perPass)
	return flavorTiming{flavor: fl, nsTuple: perPass[len(perPass)/2], cycles: cycles}
}
