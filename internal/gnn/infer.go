package gnn

import (
	"math"
	"sync"
	"sync/atomic"

	"paragraph/internal/tensor"
)

// This file is the inference engine: the allocation-free forward pass behind
// Predict/PredictBatch. The autodiff tape (Forward) remains the training
// path and the reference semantics; the engine reproduces its arithmetic up
// to float reassociation — the kernels below reassociate sums (tiled
// matmuls, precomputed attention projections, fused softmax scaling) to run
// near the FLOP limit, so predictions agree with the tape to a relaxed
// tolerance (TestInferEngineMatchesTape enforces ≤ 1e-9) instead of bit for
// bit.
//
// Three precomputed structures make the hot path cheap:
//
//   - InferencePlan: per encoded Graph, derived once and cached in the graph
//     (and therefore in the serving tier's encode cache). It re-orders each
//     relation's edge list CSR-style — grouped by destination node — and
//     additionally derives the relation's unique-source list: the only rows
//     whose W_r projection the relation ever reads. Most ParaGraph
//     relations touch a small fraction of the graph, so projecting source
//     rows only cuts the dominant N·H² matmul cost to |sources|·H².
//
//   - inferModel (inferparams.go): weight-derived constants computed once at
//     checkpoint-load time, not per forward — the per-relation attention
//     projections p_src = W_r·aSrc and p_dst = W_r·aDst, so attention scores
//     become one H-dot per node instead of an H²-projection.
//
//   - inferWorkspace: the scratch matrices of one forward pass, sized from
//     the model Config and graph shape, backed by a tensor arena and pooled
//     on the Model via sync.Pool. In steady state a forward pass performs
//     zero heap allocations (asserted by TestInferForwardZeroAllocs).

// relPlan is one relation's edges re-ordered by destination node.
type relPlan struct {
	logW       []float64 // raw log1p edge weight per edge, destination-grouped
	edgeSrcIdx []int     // per edge: index of its source node in srcList
	runStart   []int     // len(runs)+1 offsets into logW/edgeSrcIdx
	runDst     []int     // destination node of each run
	srcList    []int     // unique source nodes, ascending
}

// InferencePlan is the per-graph constant structure of the fused RGAT path:
// destination-grouped edge lists and unique-source lists for every relation
// plus the longest attention segment (which sizes the softmax scratch
// buffer). It depends only on the graph topology — not on WScale or any
// model parameter — so one plan serves every model and every
// advisor-scaled view of the graph.
type InferencePlan struct {
	rels   []relPlan
	maxRun int
}

// planBox lazily caches a graph's InferencePlan. It is shared by pointer
// across shallow Graph-header copies, so the plan is computed once per
// encoded graph no matter how many advisors re-scale it.
type planBox struct {
	mu   sync.Mutex
	plan atomic.Pointer[InferencePlan]
}

// plan returns the graph's InferencePlan, building and caching it on first
// use. Graphs without a plan cache (hand-built, no InitPlanCache) get a
// fresh plan per call — correct, just not allocation-free.
func (g *Graph) plan() *InferencePlan {
	b := g.planBox
	if b == nil {
		return buildPlan(g)
	}
	if p := b.plan.Load(); p != nil {
		return p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.plan.Load(); p != nil {
		return p
	}
	p := buildPlan(g)
	b.plan.Store(p)
	return p
}

// buildPlan groups each relation's edges by destination with a stable
// counting sort. Stability keeps softmax sums and message scatter-adds
// accumulating in the tape ops' edge order within each destination.
func buildPlan(g *Graph) *InferencePlan {
	p := &InferencePlan{rels: make([]relPlan, len(g.Rels))}
	for r := range g.Rels {
		rel := &g.Rels[r]
		e := len(rel.Src)
		if e == 0 {
			continue
		}
		rp := &p.rels[r]
		start := make([]int, g.NumNodes+1)
		for _, d := range rel.Dst {
			start[d+1]++
		}
		runs := 0
		for d := 0; d < g.NumNodes; d++ {
			if start[d+1] > 0 {
				runs++
				if start[d+1] > p.maxRun {
					p.maxRun = start[d+1]
				}
			}
			start[d+1] += start[d]
		}
		// Unique sources, ascending, and each node's slot in that list: the
		// relation's q-projection runs over srcList rows only, and each edge
		// addresses its source's projected row through edgeSrcIdx.
		seen := make([]bool, g.NumNodes)
		for _, s := range rel.Src {
			seen[s] = true
		}
		idxOf := make([]int, g.NumNodes)
		for i, ok := range seen {
			if ok {
				idxOf[i] = len(rp.srcList)
				rp.srcList = append(rp.srcList, i)
			}
		}
		rp.edgeSrcIdx = make([]int, e)
		rp.logW = make([]float64, e)
		next := make([]int, g.NumNodes)
		copy(next, start[:g.NumNodes])
		for i, d := range rel.Dst {
			slot := next[d]
			next[d]++
			rp.edgeSrcIdx[slot] = idxOf[rel.Src[i]]
			rp.logW[slot] = rel.LogW[i]
		}
		rp.runStart = make([]int, 0, runs+1)
		rp.runDst = make([]int, 0, runs)
		for d := 0; d < g.NumNodes; d++ {
			if start[d+1] > start[d] {
				rp.runStart = append(rp.runStart, start[d])
				rp.runDst = append(rp.runDst, d)
			}
		}
		rp.runStart = append(rp.runStart, e)
	}
	return p
}

// reluInto computes dst = max(src, 0) element-wise (dst is reshaped to
// src's shape via the arena). The rectification is branchless — the input's
// sign pattern is effectively random, so a compare-and-branch here would
// mispredict on half the elements.
func reluInto(ar *tensor.Arena, src, dst *tensor.Matrix) {
	ar.GetMatrix(dst, src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = max(v, 0)
	}
}

// inferWorkspace holds every scratch buffer one engine forward pass needs.
// Matrices are stored by value (headers owned here, data owned by the
// arena), so re-running a pass over a same-shaped graph touches no
// allocator at all. Workspaces are pooled per Model and used by one
// goroutine at a time.
type inferWorkspace struct {
	arena tensor.Arena

	h        tensor.Matrix // N×H node embeddings (layer input)
	layerOut tensor.Matrix // N×H convolution accumulator
	hs       tensor.Matrix // S×H gathered source rows
	qc       tensor.Matrix // S×H projected source rows
	srcScore []float64     // S source attention scores
	logits   []float64     // longest-run softmax scratch

	pooled  tensor.Matrix // 1×H mean-pooled graph embedding
	emb     tensor.Matrix // 1×H fc1 output
	emb2    tensor.Matrix // 1×H fc2 output
	featIn  tensor.Matrix // 1×2 (teams, threads) input row
	featEmb tensor.Matrix // 1×F feature-branch embedding
	concat  tensor.Matrix // 1×(H+F) head input
	outBuf  tensor.Matrix // 1×1 prediction
}

// acquireWS takes a pooled workspace (allocating the empty shell only the
// first few times under concurrency).
func (m *Model) acquireWS() *inferWorkspace {
	return m.wsPool.Get().(*inferWorkspace)
}

func (m *Model) releaseWS(ws *inferWorkspace) { m.wsPool.Put(ws) }

// inferForward runs one engine forward pass: fused node-feature assembly,
// the fused RGAT convolutions, mean pooling, and the two-branch head. It
// mirrors Model.Forward (the tape path) up to float reassociation.
func (m *Model) inferForward(ws *inferWorkspace, s *Sample) float64 {
	ip := m.inferParams()
	g := s.G
	p := g.plan()
	n, hdim := g.NumNodes, m.cfg.Hidden
	ar := &ws.arena

	// Node features: kind embedding + sub-kind embedding + scalar feature
	// projected through featVec, fused into one pass over the rows.
	ar.GetMatrix(&ws.h, n, hdim)
	kt, st := m.kindEmb.Table.Value, m.subEmb.Table.Value
	fv := m.featVec.Value.Row(0)
	for i := 0; i < n; i++ {
		krow := kt.Row(g.Kinds[i])
		srow := st.Row(g.SubKinds[i])
		hrow := ws.h.Row(i)
		f := g.Feats.Data[i]
		if f != 0 {
			for j := range hrow {
				hrow[j] = krow[j] + srow[j] + f*fv[j]
			}
		} else {
			for j := range hrow {
				hrow[j] = krow[j] + srow[j]
			}
		}
	}

	ws.logits = ar.GetSlice(ws.logits, p.maxRun)
	for li, l := range m.layers {
		l.infer(ws, p, g, &ip.layers[li])
		reluInto(ar, &ws.layerOut, &ws.h)
	}

	tensor.MeanRowsInto(&ws.h, &ws.pooled)
	tensor.MatMulInto(&ws.pooled, m.fc1.W.Value, &ws.emb)
	tensor.AddBiasInto(&ws.emb, m.fc1.B.Value, &ws.emb)
	tensor.LeakyReLUInto(&ws.emb, 0, &ws.emb)
	tensor.MatMulInto(&ws.emb, m.fc2.W.Value, &ws.emb2)
	tensor.AddBiasInto(&ws.emb2, m.fc2.B.Value, &ws.emb2)
	tensor.LeakyReLUInto(&ws.emb2, 0, &ws.emb2)

	ar.GetMatrix(&ws.featIn, 1, 2)
	ws.featIn.Data[0], ws.featIn.Data[1] = s.Feats[0], s.Feats[1]
	tensor.MatMulInto(&ws.featIn, m.featFC.W.Value, &ws.featEmb)
	tensor.AddBiasInto(&ws.featEmb, m.featFC.B.Value, &ws.featEmb)
	tensor.LeakyReLUInto(&ws.featEmb, 0, &ws.featEmb)

	hc, fc := ws.emb2.Cols, ws.featEmb.Cols
	ar.GetMatrix(&ws.concat, 1, hc+fc)
	copy(ws.concat.Data[:hc], ws.emb2.Data)
	copy(ws.concat.Data[hc:], ws.featEmb.Data)
	tensor.MatMulInto(&ws.concat, m.out.W.Value, &ws.outBuf)
	tensor.AddBiasInto(&ws.outBuf, m.out.B.Value, &ws.outBuf)
	return ws.outBuf.Data[0]
}

// infer is the fused engine counterpart of rgatLayer.apply: per relation it
// gathers the unique source rows, projects them through W_r with one tiled
// matmul, reads the attention scores off the precomputed projections
// p_src/p_dst — one H-dot per node instead of re-projecting through W_r —
// and runs LeakyReLU, segment softmax, static-weight scaling and message
// aggregation as one loop nest over the plan's destination-grouped runs,
// accumulating straight into the layer output.
func (l *rgatLayer) infer(ws *inferWorkspace, p *InferencePlan, g *Graph, ex *inferLayerExtras) {
	tensor.MatMulInto(&ws.h, l.self.Value, &ws.layerOut)
	tensor.AddBiasInto(&ws.layerOut, l.bias.Value, &ws.layerOut)
	wscale := g.WScale
	if wscale <= 0 {
		wscale = 1
	}
	hdim := ws.h.Cols
	for r := range g.Rels {
		if r >= len(l.w) {
			break
		}
		rp := &p.rels[r]
		if len(rp.edgeSrcIdx) == 0 {
			continue
		}
		// Gather the relation's unique source rows and project them through
		// W_r: qc[si] = h[srcList[si]]×W_r. Only these rows are ever read as
		// messages, so the projection cost scales with the relation's source
		// set, not the graph.
		sn := len(rp.srcList)
		ws.arena.GetMatrix(&ws.hs, sn, hdim)
		for si, node := range rp.srcList {
			copy(ws.hs.Row(si), ws.h.Row(node))
		}
		tensor.MatMulInto(&ws.hs, l.w[r].Value, &ws.qc)
		// Attention scores off the precomputed projections: one dot with
		// p_src per source row; destination scores are one dot with p_dst
		// per run, computed inline (each destination owns exactly one run).
		ws.srcScore = ws.arena.GetSlice(ws.srcScore, sn)
		pSrc, pDst := ex.pSrc[r], ex.pDst[r]
		for si := 0; si < sn; si++ {
			ws.srcScore[si] = tensor.Dot(ws.hs.Row(si), pSrc)
		}
		c := l.wCoef[r].Value.Data[0]
		for t := 0; t+1 < len(rp.runStart); t++ {
			lo, hi := rp.runStart[t], rp.runStart[t+1]
			d := rp.runDst[t]
			ds := tensor.Dot(ws.h.Row(d), pDst)
			run := ws.logits[:hi-lo]
			mx := math.Inf(-1)
			for i := lo; i < hi; i++ {
				v := ws.srcScore[rp.edgeSrcIdx[i]] + ds
				if v < 0 {
					v = l.alpha * v
				}
				run[i-lo] = v
				if v > mx {
					mx = v
				}
			}
			var sum float64
			for i, v := range run {
				e := math.Exp(v - mx)
				run[i] = e
				sum += e
			}
			// Segments whose sum underflows to zero stay unnormalized,
			// exactly as the tape's SegmentSoftmax leaves them.
			inv := 1.0
			if sum > 0 {
				inv = 1 / sum
			}
			drow := ws.layerOut.Row(d)
			for i := lo; i < hi; i++ {
				// Static edge weights scale the message through the learned
				// per-relation coefficient: (α·q)·(1 + c_r·w̃), folded into
				// one per-edge factor.
				f := run[i-lo] * inv
				if !l.noWeights {
					if wt := rp.logW[i] / wscale; wt != 0 {
						f *= wt*c + 1
					}
				}
				qrow := ws.qc.Row(rp.edgeSrcIdx[i])
				for j, qv := range qrow {
					drow[j] += qv * f
				}
			}
		}
	}
}
