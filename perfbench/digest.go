package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"microadapt/internal/engine"
	"microadapt/internal/vector"
)

// digest is a bit-exact hash of a result table: its schema (column names
// and types), row count, integer values, the raw IEEE-754 bits of every
// float and every string with a length prefix. Two tables digest equal
// only if every value is identical to the bit, unlike server.Fingerprint,
// which hashes a text render with floats rounded to four decimals. The
// table name is left out: it is a label, not part of the result.
type digest [sha256.Size]byte

func (d digest) String() string { return fmt.Sprintf("%x", d[:6]) }

func tableDigest(t *engine.Table) digest {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	putU := func(x uint64) { h.Write(buf[:binary.PutUvarint(buf[:], x)]) }
	putStr := func(s string) {
		putU(uint64(len(s)))
		h.Write([]byte(s))
	}
	putU(uint64(len(t.Sch)))
	for _, c := range t.Sch {
		putStr(c.Name)
		putU(uint64(c.Type))
	}
	rows := t.Rows()
	putU(uint64(rows))
	var word [8]byte
	put64 := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	for ci, c := range t.Sch {
		v := t.Cols[ci]
		switch c.Type {
		case vector.I16:
			for _, x := range v.I16()[:rows] {
				put64(uint64(int64(x)))
			}
		case vector.I32:
			for _, x := range v.I32()[:rows] {
				put64(uint64(int64(x)))
			}
		case vector.I64:
			for _, x := range v.I64()[:rows] {
				put64(uint64(x))
			}
		case vector.F64:
			for _, x := range v.F64()[:rows] {
				put64(math.Float64bits(x))
			}
		case vector.Str:
			for _, x := range v.Str()[:rows] {
				putStr(x)
			}
		default:
			panic(fmt.Sprintf("perfbench: digest: column %s has unknown type %v", c.Name, c.Type))
		}
	}
	var d digest
	h.Sum(d[:0])
	return d
}
