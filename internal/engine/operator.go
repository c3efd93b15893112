// Package engine is the vectorized query executor: pull-based relational
// operators (Scan, Select, Project, HashAgg, HashJoin, MergeJoin, Sort,
// TopN, Limit, and the Parallel/Exchange pair for partitioned pipelines)
// that move vector.Batch slices of one vector size — the session's
// configurable tuples-per-vector, 1024 by default and 128 in the benchmark
// and service configurations — and do all data-path work through the
// adaptive primitive instances of a core.Session, exactly separating
// control logic (operators) from data processing logic (primitives) as
// described in §1 of the paper.
//
// As in Vectorwise, each operator owns its output batch, vectors,
// selection buffers and primitive calls. It allocates them on first use,
// grows them only when a batch is wider than any before, and overwrites
// them on every Next, so a steady-state pipeline allocates nothing per
// batch. A batch returned by Next is therefore valid only until the
// operator's next Next or Close; Run and Materialize copy what they keep.
package engine

import (
	"fmt"

	"microadapt/internal/core"
	"microadapt/internal/vector"
)

// Operator is a vectorized physical operator. Usage: Open, then Next until
// it returns nil, then Close.
type Operator interface {
	// Schema describes the batches this operator produces.
	Schema() vector.Schema
	// Open prepares the operator (and its children) for execution.
	Open() error
	// Next returns the next batch or nil at end of stream. Returned
	// batches may carry a selection vector. The batch, its selection and
	// its vectors belong to the operator (or to a table it streams) and
	// stay valid only until the next Next or Close: a consumer that keeps
	// tuples longer copies them (vector.Batch.CompactInto, Materialize).
	Next() (*vector.Batch, error)
	// Close releases resources; it must be called exactly once.
	Close()
}

// perBatchOverhead is the control-logic cost an operator adds per batch —
// the "execute stage outside primitives" sliver of Table 1.
const perBatchOverhead = 24.0

// chargeOp adds operator (non-primitive) execute-stage cycles.
func chargeOp(s *core.Session, cycles float64) {
	s.Ctx.OperatorCycles += cycles
}

// Drain opens op, streams every non-empty batch (selection vector intact)
// to yield, and closes it. Batches may alias operator-owned or table-owned
// storage: yield must consume them before returning and never retain them.
// It is the streaming "postprocess" boundary of Table 1 — Run and
// Materialize are both built on it.
func Drain(op Operator, yield func(*vector.Batch) error) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	for {
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if b.Live() == 0 {
			continue
		}
		if err := yield(b); err != nil {
			return err
		}
	}
}

// Run drains an operator, returning its batches compacted (selection
// applied, one vector.Batch.CompactInto(nil) each). Because every batch is
// retained past the operator's next Next, each one is copied into its own
// storage — callers that only stream over the output should use Drain
// (raw batches) or Materialize (gathers live tuples straight into growing
// columns) instead, which allocate no fresh vectors per batch.
func Run(op Operator) ([]*vector.Batch, error) {
	var out []*vector.Batch
	err := Drain(op, func(b *vector.Batch) error {
		out = append(out, b.CompactInto(nil))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RowCount sums the live tuples of batches.
func RowCount(batches []*vector.Batch) int {
	n := 0
	for _, b := range batches {
		n += b.Live()
	}
	return n
}

// labelf builds instance labels.
func labelf(format string, args ...any) string { return fmt.Sprintf(format, args...) }
