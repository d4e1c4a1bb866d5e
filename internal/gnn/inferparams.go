package gnn

import (
	"paragraph/internal/tensor"
)

// This file holds inferModel: the weight-derived constants of the inference
// engine, computed once per checkpoint instead of once per forward pass.
// Training mutates parameters in place (Adam steps, checkpoint loads), so
// the derived view is invalidated on every mutation the package performs
// (Train's optimizer steps, Load) and rebuilt lazily on the next Predict.
// Code that mutates parameter values directly — tests, ablation tooling —
// must call InvalidateInference afterwards.

// inferLayerExtras carries one convolution's precomputed attention
// projections: pSrc[r] = W_r·aSrc_r and pDst[r] = W_r·aDst_r (length
// Hidden). The tape scores an edge as (h·W_r)·a; the engine reassociates to
// h·(W_r·a), turning the per-node score into a single H-dot against these
// vectors — the H²-per-node projection cost disappears from the score path
// entirely.
type inferLayerExtras struct {
	pSrc [][]float64
	pDst [][]float64
}

// inferModel is the engine's derived view of the model weights: the
// attention projections of every layer. It is immutable once built and
// shared by every concurrent forward pass via an atomic pointer.
type inferModel struct {
	layers []inferLayerExtras
}

// inferParams returns the current derived weights, building them under the
// mutex on first use after an invalidation. The double-checked atomic load
// keeps the steady-state cost of a forward pass at one atomic read.
func (m *Model) inferParams() *inferModel {
	if p := m.inferP.Load(); p != nil {
		return p
	}
	m.inferMu.Lock()
	defer m.inferMu.Unlock()
	if p := m.inferP.Load(); p != nil {
		return p
	}
	p := m.buildInferModel()
	m.inferP.Store(p)
	return p
}

// InvalidateInference discards the precomputed inference weights; the next
// Predict rebuilds them from the current parameter values. The package
// invalidates after its own parameter mutations (Train's optimizer steps,
// Load); call this after mutating parameter values directly.
func (m *Model) InvalidateInference() { m.inferP.Store(nil) }

// PrecomputeInference builds the derived inference weights eagerly, so the
// first request served by a freshly loaded model does not pay the build.
func (m *Model) PrecomputeInference() { m.inferParams() }

// buildInferModel derives the inference constants from the current
// parameter values.
func (m *Model) buildInferModel() *inferModel {
	ip := &inferModel{layers: make([]inferLayerExtras, len(m.layers))}
	for li, l := range m.layers {
		ex := &ip.layers[li]
		ex.pSrc = make([][]float64, len(l.w))
		ex.pDst = make([][]float64, len(l.w))
		for r := range l.w {
			ex.pSrc[r] = projectAttention(l.w[r].Value, l.aSrc[r].Value)
			ex.pDst[r] = projectAttention(l.w[r].Value, l.aDst[r].Value)
		}
	}
	return ip
}

// projectAttention computes W·a for an H×H projection and an H×1 attention
// vector: the precomputed form of the engine's attention scores.
func projectAttention(w, a *tensor.Matrix) []float64 {
	out := make([]float64, w.Rows)
	for i := range out {
		out[i] = tensor.Dot(w.Row(i), a.Data)
	}
	return out
}
