package tensor

import "math"

// This file holds the destination-passing kernels behind the inference fast
// path (internal/gnn): each op writes into a caller-owned matrix instead of
// allocating a fresh one, so a whole forward pass can run out of a pooled
// workspace with zero heap traffic. The elementwise kernels reuse the exact
// loop body of their allocating counterparts (or the matching autodiff tape
// op) and produce bit-identical values; MatMulInto instead runs the tiled
// kernel (tiled.go), which preserves per-element accumulation order and so
// agrees with the naive MatMul to the last ulp.
//
// The engine calls MatMulInto, AddBiasInto, LeakyReLUInto and MeanRowsInto
// directly; the message-path ops (GatherRowsInto, ScatterAddRowsInto,
// MulColBroadcastInto, SegmentSoftmaxInto, AddInto) are the unfused op-level
// API — gnn's fused RGAT loop nest (gnn/infer.go) inlines their loop bodies
// into one pass over each relation's edges, so editing one of them does NOT
// change the fused path. Each kernel's test pins it to the allocating op,
// and the gnn equivalence fuzz pins the fused nest to the tape, so drift on
// either side fails loudly.
//
// The kernels are single-goroutine by design: parallelism belongs to the
// caller, which fans out across samples (gnn.Model.PredictBatch), not across
// rows of one product. dst is reshaped from its existing capacity,
// allocating only when it must grow — pre-size it (see Arena) to stay
// allocation-free.

// reshape points dst at a rows×cols view of its backing array, growing the
// array only when capacity is insufficient.
func (m *Matrix) reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("tensor: reshape to negative dimensions")
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
}

// MatMulInto computes dst = a×b. dst must not alias a or b; it is reshaped
// to a.Rows×b.Cols and fully overwritten. Unlike the allocating MatMul
// (which stays the naive reference kernel the autodiff tape is defined by),
// MatMulInto runs the register-blocked tiled kernel (tiled.go): each output
// element still accumulates its k products in index order, so results agree
// with MatMul to the last ulp (they can differ only where MatMul's
// skip-zero branch changes a signed zero).
func MatMulInto(a, b, dst *Matrix) {
	shapeCheck(a.Cols == b.Rows, "MatMulInto %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	dst.reshape(a.Rows, b.Cols)
	matMulTiled(a.Data, a.Rows, a.Cols, b.Data, b.Cols, dst.Data)
}

// AddInto computes dst = a + b. dst may alias a or b.
func AddInto(a, b, dst *Matrix) {
	shapeCheck(a.SameShape(b), "AddInto %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	dst.reshape(a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// AddBiasInto computes dst = a + bias, broadcasting the 1×C bias over a's
// rows. dst may alias a.
func AddBiasInto(a, bias, dst *Matrix) {
	shapeCheck(bias.Rows == 1 && bias.Cols == a.Cols,
		"AddBiasInto %dx%d + %dx%d", a.Rows, a.Cols, bias.Rows, bias.Cols)
	dst.reshape(a.Rows, a.Cols)
	brow := bias.Row(0)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j, v := range arow {
			drow[j] = v + brow[j]
		}
	}
}

// GatherRowsInto computes dst[i] = a[idx[i]]. dst must not alias a.
func GatherRowsInto(a *Matrix, idx []int, dst *Matrix) {
	dst.reshape(len(idx), a.Cols)
	for i, src := range idx {
		copy(dst.Row(i), a.Row(src))
	}
}

// ScatterAddRowsInto accumulates dst[idx[i]] += a[i] over numRows
// destination rows, first clearing dst. dst must not alias a. The
// accumulation visits rows in index order, matching the tape op.
func ScatterAddRowsInto(a *Matrix, idx []int, numRows int, dst *Matrix) {
	shapeCheck(len(idx) == a.Rows, "ScatterAddRowsInto idx %d vs rows %d", len(idx), a.Rows)
	dst.reshape(numRows, a.Cols)
	dst.Zero()
	for i, d := range idx {
		drow := dst.Row(d)
		for j, v := range a.Row(i) {
			drow[j] += v
		}
	}
}

// MulColBroadcastInto computes dst[i] = a[i] * c[i][0], scaling each row of
// a by the matching entry of the column vector c. dst may alias a.
func MulColBroadcastInto(a, c, dst *Matrix) {
	shapeCheck(c.Cols == 1 && c.Rows == a.Rows,
		"MulColBroadcastInto %dx%d × %dx%d", a.Rows, a.Cols, c.Rows, c.Cols)
	dst.reshape(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		f := c.Data[i]
		arow := a.Row(i)
		drow := dst.Row(i)
		for j, v := range arow {
			drow[j] = v * f
		}
	}
}

// LeakyReLUInto computes dst = max(x, alpha*x) element-wise, using the same
// formula as the tape op (negative values map to alpha*x, so alpha == 0
// yields the same signed zeros as the tape's ReLU). dst may alias a.
func LeakyReLUInto(a *Matrix, alpha float64, dst *Matrix) {
	dst.reshape(a.Rows, a.Cols)
	for i, v := range a.Data {
		if v < 0 {
			v = alpha * v
		}
		dst.Data[i] = v
	}
}

// SegmentSoftmaxInto normalizes the E×1 logits within each segment, exactly
// as the tape op does (max-subtraction, accumulation in row order, segments
// whose sum underflows to zero left unnormalized). scratch provides the
// per-segment max/sum storage and must hold at least 2*numSegments values;
// pass nil to allocate. dst may alias logits.
func SegmentSoftmaxInto(logits *Matrix, segments []int, numSegments int, scratch []float64, dst *Matrix) {
	shapeCheck(logits.Cols == 1 && len(segments) == logits.Rows,
		"SegmentSoftmaxInto %dx%d with %d segments", logits.Rows, logits.Cols, len(segments))
	if cap(scratch) < 2*numSegments {
		scratch = make([]float64, 2*numSegments)
	}
	scratch = scratch[:2*numSegments]
	maxes := scratch[:numSegments]
	sums := scratch[numSegments:]
	for i := range maxes {
		maxes[i] = math.Inf(-1)
		sums[i] = 0
	}
	for e, s := range segments {
		if v := logits.Data[e]; v > maxes[s] {
			maxes[s] = v
		}
	}
	dst.reshape(logits.Rows, 1)
	for e, s := range segments {
		v := math.Exp(logits.Data[e] - maxes[s])
		dst.Data[e] = v
		sums[s] += v
	}
	for e, s := range segments {
		if sums[s] > 0 {
			dst.Data[e] /= sums[s]
		}
	}
}

// MeanRowsInto computes the 1×C mean over a's rows, accumulating in row
// order and scaling by 1/rows exactly as the tape op does. dst must not
// alias a.
func MeanRowsInto(a, dst *Matrix) {
	shapeCheck(a.Rows > 0, "MeanRowsInto of empty matrix")
	dst.reshape(1, a.Cols)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			dst.Data[j] += v
		}
	}
	dst.ScaleInPlace(1 / float64(a.Rows))
}
