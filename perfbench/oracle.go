package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"paragraph/internal/advisor"
	"paragraph/internal/apps"
	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
	"paragraph/internal/variants"
)

// tapeTol is the engine's gated float32 equivalence tolerance against the
// float64 autodiff tape (internal/gnn equivalence tests), on scaled outputs
// with a max(1, |tape|) denominator.
const tapeTol = 1e-4

// refModel is one checkpoint loaded independently of the server, scored
// only through the reference tape path.
type refModel struct {
	model *gnn.Model
	prep  *dataset.Prepared
	level paragraph.Level
}

// oracle checks answers against references the benchmark builds itself.
type oracle struct {
	refs map[string]*refModel // by machine name
}

// newOracle loads every checkpoint under root into a float64 model. The
// weights file name is the registry's on-disk layout.
func newOracle(root string) (*oracle, error) {
	cps, err := registry.Discover(root)
	if err != nil {
		return nil, err
	}
	o := &oracle{refs: map[string]*refModel{}}
	for _, cp := range cps {
		man := cp.Manifest
		m := gnn.NewModel(man.Config)
		f, err := os.Open(filepath.Join(cp.Dir, "weights.json"))
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		err = m.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("oracle: loading %s: %w", cp.Dir, err)
		}
		level, err := registry.ParseLevel(man.Level)
		if err != nil {
			return nil, err
		}
		o.refs[man.Platform] = &refModel{
			model: m,
			prep: &dataset.Prepared{
				TargetScaler: man.Scalers.Target, TeamScaler: man.Scalers.Team,
				ThreadScaler: man.Scalers.Thread, WScale: man.Scalers.WScale,
			},
			level: level,
		}
	}
	return o, nil
}

// checkAdviseShape verifies what every 200 advise answer must satisfy: the
// full grid for its kernel and machine, each point once, with finite
// positive predictions sorted ascending.
func checkAdviseShape(req serve.AdviseRequest, resp serve.AdviseResponse) error {
	k, ok := apps.ByName(req.Kernel)
	if !ok {
		return fmt.Errorf("unknown kernel %q", req.Kernel)
	}
	m, err := hw.ByName(req.Machine)
	if err != nil {
		return err
	}
	want := map[point]bool{}
	for _, p := range gridPoints(k, m, advisor.DefaultSearchSpace()) {
		want[p] = true
	}
	if len(resp.Recommendations) != len(want) {
		return fmt.Errorf("%s on %s: %d recommendations, grid has %d", req.Kernel, req.Machine, len(resp.Recommendations), len(want))
	}
	prev := math.Inf(-1)
	for _, r := range resp.Recommendations {
		p := point{r.Variant, r.Teams, r.Threads}
		if !want[p] {
			return fmt.Errorf("%s on %s: unexpected or repeated point %+v", req.Kernel, req.Machine, p)
		}
		delete(want, p)
		us := r.PredictedUS
		if math.IsNaN(us) || math.IsInf(us, 0) || us <= 0 {
			return fmt.Errorf("%s on %s: non-finite prediction %v at %+v", req.Kernel, req.Machine, us, p)
		}
		if us < prev {
			return fmt.Errorf("%s on %s: ranking not ascending at %+v", req.Kernel, req.Machine, p)
		}
		prev = us
	}
	return nil
}

// tapeScaled scores one grid point through the reference path: variant
// generation, parse, ParaGraph build and encode from the public front-end
// functions, then gnn.Model.PredictTape. It returns the scaled prediction.
func (o *oracle) tapeScaled(kernel, machine, variant string, teams, threads int, bindings map[string]float64) (float64, *refModel, error) {
	ref, ok := o.refs[machine]
	if !ok {
		return 0, nil, fmt.Errorf("no reference checkpoint for %q", machine)
	}
	k, ok := apps.ByName(kernel)
	if !ok {
		return 0, nil, fmt.Errorf("unknown kernel %q", kernel)
	}
	kind, err := kindByName(variant)
	if err != nil {
		return 0, nil, err
	}
	src, err := variants.Generate(k, kind, teams, threads)
	if err != nil {
		return 0, nil, err
	}
	g, err := paragraph.BuildKernel(src, paragraph.Options{Level: ref.level, Threads: threads, Bindings: bindings})
	if err != nil {
		return 0, nil, err
	}
	eg, err := gnn.Encode(g, int(paragraph.NumEdgeTypes))
	if err != nil {
		return 0, nil, err
	}
	eg.WScale = ref.prep.WScale
	s := &gnn.Sample{G: eg, Feats: [2]float64{
		ref.prep.TeamScaler.Scale(float64(teams)),
		ref.prep.ThreadScaler.Scale(float64(threads)),
	}}
	return ref.model.PredictTape(s), ref, nil
}

// matchTape checks one served prediction (in µs) against the tape.
func (o *oracle) matchTape(kernel, machine, variant string, teams, threads int, bindings map[string]float64, servedUS float64) error {
	tape, ref, err := o.tapeScaled(kernel, machine, variant, teams, threads, bindings)
	if err != nil {
		return err
	}
	// Invert DescaleUS: scaled = (ln us − min) / (max − min).
	ts := ref.prep.TargetScaler
	served := (math.Log(servedUS) - ts.Min) / (ts.Max - ts.Min)
	if e := math.Abs(served-tape) / math.Max(1, math.Abs(tape)); !(e <= tapeTol) {
		return fmt.Errorf("%s/%s g%d t%d on %s: served %.9g (scaled %.9g) vs tape %.9g: rel err %.3g > %g",
			kernel, variant, teams, threads, machine, servedUS, served, tape, e, tapeTol)
	}
	return nil
}

// checkAdviseTape tape-checks every point of an advise answer.
func (o *oracle) checkAdviseTape(req serve.AdviseRequest, resp serve.AdviseResponse) error {
	for _, r := range resp.Recommendations {
		if err := o.matchTape(req.Kernel, req.Machine, r.Variant, r.Teams, r.Threads, req.Bindings, r.PredictedUS); err != nil {
			return err
		}
	}
	return nil
}

// checkPredictShape verifies what every 200 predict answer must satisfy:
// it echoes the asked point and carries a finite positive prediction.
func checkPredictShape(req serve.PredictRequest, resp serve.PredictResponse) error {
	if resp.Variant != req.Variant || resp.Teams != req.Teams || resp.Threads != req.Threads {
		return fmt.Errorf("predict answered %s g%d t%d, asked %s g%d t%d",
			resp.Variant, resp.Teams, resp.Threads, req.Variant, req.Teams, req.Threads)
	}
	us := resp.PredictedUS
	if math.IsNaN(us) || math.IsInf(us, 0) || us <= 0 {
		return fmt.Errorf("predict: non-finite prediction %v", us)
	}
	return nil
}

// checkPredictTape checks a predict answer against the tape reference.
func (o *oracle) checkPredictTape(req serve.PredictRequest, resp serve.PredictResponse) error {
	return o.matchTape(req.Kernel, req.Machine, req.Variant, req.Teams, req.Threads, req.Bindings, resp.PredictedUS)
}

// recsTail is the rendered ranking of a raw advise response: the bytes from
// the "recommendations" field on. It is the last field the server encodes,
// so two answers carry the same ranking exactly when their tails match,
// whatever their elapsed time, cache flag or serving peer.
func recsTail(body []byte) []byte {
	i := bytes.Index(body, []byte(`"recommendations":`))
	if i < 0 {
		return nil
	}
	return body[i:]
}

func kindByName(name string) (variants.Kind, error) {
	for _, k := range variants.Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}
