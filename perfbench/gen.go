package main

import (
	"fmt"
	"math/rand"
	"sort"

	"paragraph/internal/advisor"
	"paragraph/internal/apps"
	"paragraph/internal/hw"
	"paragraph/internal/serve"
	"paragraph/internal/variants"
)

// The two served machines: one GPU and one CPU checkpoint.
var machines = []hw.Machine{hw.V100(), hw.Power9()}

// Request streams draw size bindings with a fixed residue modulo numLanes,
// so streams on different lanes can never produce the same request and a
// "fresh" request is fresh across every client of a run.
const numLanes = 4

const (
	laneClient0 = 0 // first closed-loop client (or the bulk client)
	laneClient1 = 1 // second closed-loop client (or open-loop predicts)
	laneHotSet  = 2 // the pre-warmed working set
	laneWarmUp  = 3 // set-up warm-up requests, never measured
)

// gen is one seeded request stream. The same (seed, lane) always yields the
// same sequence; the program only ever sees the generated requests.
type gen struct {
	rng     *rand.Rand
	lane    int
	kernels []apps.Kernel
	seen    map[string]bool
	round   []combo // advise combos left in the current round
}

// combo is one (kernel, machine) pair of an advise round.
type combo struct {
	k apps.Kernel
	m hw.Machine
}

// gpuWeight is how many times each kernel appears on the GPU per advise
// round, against once on the CPU. Grid sizes make advise latency a mixture
// of four modes (7, 14, 24 and 48 points); at equal weights the median
// falls exactly in the gap between the CPU and GPU modes, where it jumps
// between them from seed to seed. At 2:1 it lies inside the 24-point mode.
const gpuWeight = 2

func newGen(seed int64, lane int) *gen {
	return &gen{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(lane))),
		lane:    lane,
		kernels: apps.Kernels(),
		seen:    map[string]bool{},
	}
}

// bindings draws off-grid values for every size parameter of k: uniform in
// [min/2, 2·max], never one of the sweep values the model was trained on,
// and on this stream's lane.
func (g *gen) bindings(k apps.Kernel) map[string]float64 {
	b := map[string]float64{}
	for _, p := range k.Params {
		lo, hi := p.Values[0], p.Values[0]
		onGrid := map[int]bool{}
		for _, v := range p.Values {
			lo, hi = min(lo, v), max(hi, v)
			onGrid[v] = true
		}
		lo, hi = max(lo/2, numLanes), 2*hi
		for {
			v := lo + g.rng.Intn(hi-lo+1)
			v += g.lane - v%numLanes
			if !onGrid[v] {
				b[p.Name] = float64(v)
				break
			}
		}
	}
	return b
}

// nextCombo deals the next (kernel, machine) pair. Pairs come in rounds
// holding every kernel gpuWeight times on the GPU and once on the CPU, in
// seeded order, so every window of a run sees nearly the same mix.
func (g *gen) nextCombo() combo {
	if len(g.round) == 0 {
		for _, k := range g.kernels {
			for _, m := range machines {
				n := 1
				if m.IsGPU {
					n = gpuWeight
				}
				for i := 0; i < n; i++ {
					g.round = append(g.round, combo{k, m})
				}
			}
		}
		g.rng.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
	}
	c := g.round[0]
	g.round = g.round[1:]
	return c
}

// advise returns a fresh (kernel, machine, off-grid bindings) triple with
// the default search space: no earlier request of this stream matches it.
func (g *gen) advise() serve.AdviseRequest {
	for {
		c := g.nextCombo()
		k, m := c.k, c.m
		req := serve.AdviseRequest{Kernel: k.Name, Machine: m.Name, Bindings: g.bindings(k)}
		key := "a|" + k.Name + "|" + m.Name + "|" + advisor.BindingsKey(req.Bindings)
		if !g.seen[key] {
			g.seen[key] = true
			return req
		}
	}
}

// predict returns a fresh single-variant request: a machine-compatible
// variant kind at one point of the default search space.
func (g *gen) predict() serve.PredictRequest {
	space := advisor.DefaultSearchSpace()
	for {
		k := g.kernels[g.rng.Intn(len(g.kernels))]
		m := machines[g.rng.Intn(len(machines))]
		pts := gridPoints(k, m, space)
		pt := pts[g.rng.Intn(len(pts))]
		req := serve.PredictRequest{
			Kernel: k.Name, Machine: m.Name, Variant: pt.variant,
			Teams: pt.teams, Threads: pt.threads, Bindings: g.bindings(k),
		}
		key := fmt.Sprintf("p|%s|%s|%s|%d|%d|%s", k.Name, m.Name, pt.variant, pt.teams, pt.threads,
			advisor.BindingsKey(req.Bindings))
		if !g.seen[key] {
			g.seen[key] = true
			return req
		}
	}
}

// hotSet draws n distinct advise requests: the working set a tier is
// pre-warmed with.
func (g *gen) hotSet(n int) []serve.AdviseRequest {
	out := make([]serve.AdviseRequest, n)
	for i := range out {
		out[i] = g.advise()
	}
	return out
}

// zipf picks working-set ranks with a Zipf law P(r) ∝ (8+r)^-1.1: the top
// rank draws about 5% of requests and the last about 1%. The offset keeps
// any single key from dominating a run, so which keys the seed made hot
// moves the figures little.
type zipf struct{ z *rand.Zipf }

func newZipf(seed int64, lane, n int) zipf {
	rng := rand.New(rand.NewSource(seed*104729 + int64(lane)))
	return zipf{rand.NewZipf(rng, 1.1, 8, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }

// point is one (variant, teams, threads) cell of an advise grid.
type point struct {
	variant        string
	teams, threads int
}

// gridPoints enumerates the grid an advise answer must list for kernel k on
// machine m: every machine-compatible variant kind (collapse kinds only for
// collapsible kernels) crossed with the space's parallelism values. It is
// written from the paper's variant rules, not from the advisor's code.
func gridPoints(k apps.Kernel, m hw.Machine, space advisor.SearchSpace) []point {
	var pts []point
	for _, kind := range variants.Kinds() {
		if kind.IsGPU() != m.IsGPU || (kind.IsCollapse() && !k.Collapsible) {
			continue
		}
		if m.IsGPU {
			for _, teams := range space.GPUTeams {
				for _, threads := range space.GPUThreads {
					pts = append(pts, point{kind.String(), teams, threads})
				}
			}
			continue
		}
		for _, threads := range space.CPUThreads {
			pts = append(pts, point{kind.String(), 0, threads})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.variant != b.variant {
			return a.variant < b.variant
		}
		if a.teams != b.teams {
			return a.teams < b.teams
		}
		return a.threads < b.threads
	})
	return pts
}
