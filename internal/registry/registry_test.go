package registry

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
)

func testPrep() *dataset.Prepared {
	return &dataset.Prepared{
		TargetScaler: dataset.Scaler{Min: math.Log(10), Max: math.Log(1e6)},
		TeamScaler:   dataset.Scaler{Min: 0, Max: 256},
		ThreadScaler: dataset.Scaler{Min: 1, Max: 256},
		WScale:       10,
	}
}

func newTestModel(seed int64) *gnn.Model {
	return gnn.NewModel(gnn.Config{
		Hidden: 8, FeatHidden: 8, Layers: 1,
		Relations: int(paragraph.NumEdgeTypes), Seed: seed,
	})
}

// testSample builds one model-ready sample so predictions can be compared
// between an original model and its registry round-trip.
func testSample(t *testing.T) *gnn.Sample {
	t.Helper()
	src := `
void k(double *a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < 1000; i++) {
        a[i] = a[i] * 2.0;
    }
}`
	g, err := paragraph.BuildKernel(src, paragraph.Options{
		Level:   paragraph.LevelParaGraph,
		Threads: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eg, err := gnn.Encode(g, int(paragraph.NumEdgeTypes))
	if err != nil {
		t.Fatal(err)
	}
	eg.WScale = 10
	return &gnn.Sample{G: eg, Feats: [2]float64{0.25, 0.5}}
}

// saveTest writes one checkpoint and returns its model.
func saveTest(t *testing.T, root string, m hw.Machine, name string, seed int64) *gnn.Model {
	t.Helper()
	model := newTestModel(seed)
	if _, err := Save(root, m, name, paragraph.LevelParaGraph, model, testPrep(), TrainInfo{
		Scale: "tiny", Epochs: 3, TrainSamples: 90, ValSamples: 10, FinalValRMSE: 0.12,
	}); err != nil {
		t.Fatal(err)
	}
	return model
}

func TestSaveOpenRoundTrip(t *testing.T) {
	root := t.TempDir()
	model := saveTest(t, root, hw.V100(), "default", 7)

	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Lookup(hw.V100().Name, "") // default alias
	if err != nil {
		t.Fatal(err)
	}
	man := e.Manifest
	if man.Platform != hw.V100().Name || man.Name != "default" || man.Level != "ParaGraph" {
		t.Errorf("manifest identity = %+v", man)
	}
	if man.Params != model.NumParams() || man.Checksum != model.Checksum() {
		t.Errorf("manifest params/checksum = %d/%q, want %d/%q",
			man.Params, man.Checksum, model.NumParams(), model.Checksum())
	}
	if man.Train.Epochs != 3 || man.Train.FinalValRMSE != 0.12 {
		t.Errorf("train info = %+v", man.Train)
	}
	if e.Prep.WScale != 10 || e.Prep.TargetScaler != testPrep().TargetScaler {
		t.Errorf("restored scalers = %+v", e.Prep)
	}

	// Predictions through the round-tripped entry are bit-identical to the
	// original model's.
	s := testSample(t)
	want := model.PredictBatch([]*gnn.Sample{s})[0]
	got := e.PredictBatch([]*gnn.Sample{s})[0]
	if got != want {
		t.Errorf("round-trip prediction %v != original %v", got, want)
	}
}

// TestRegistryMatchesPlainModel pins that the registry serves exactly the
// checkpoint's model: a registry-served prediction is bit-identical to
// LoadCheckpoint + Predict on the same checkpoint directory.
func TestRegistryMatchesPlainModel(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "default", 7)
	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Lookup(hw.V100().Name, "")
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := LoadCheckpoint(e.Dir)
	if err != nil {
		t.Fatal(err)
	}
	base := testSample(t)
	var batch []*gnn.Sample
	for _, feats := range [][2]float64{{0, 0}, {0.25, 0.5}, {1, 1}} {
		s := *base
		s.Feats = feats
		batch = append(batch, &s)
	}
	got := e.PredictBatch(batch)
	for i, s := range batch {
		if want := plain.Predict(s); got[i] != want {
			t.Errorf("sample %d: registry prediction %v != LoadCheckpoint+Predict %v", i, got[i], want)
		}
	}
}

// rewriteManifest loads, mutates and rewrites one checkpoint's manifest.
func rewriteManifest(t *testing.T, dir string, mutate func(*Manifest)) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	mutate(&man)
	out, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func ckptDir(root string, m hw.Machine, name string) string {
	return filepath.Join(root, PlatformSlug(m.Name), name)
}

func TestOpenRejectsConfigMismatch(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "default", 7)
	rewriteManifest(t, ckptDir(root, hw.V100(), "default"), func(man *Manifest) {
		man.Config.Hidden += 8 // architecture no longer matches the weights
	})
	if _, err := Open(root, Options{}); err == nil {
		t.Fatal("Open accepted a manifest whose config mismatches the weights")
	} else if !strings.Contains(err.Error(), "config/weights mismatch") {
		t.Errorf("error = %v, want config/weights mismatch", err)
	}
}

func TestOpenRejectsChecksumDrift(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "default", 7)
	// Overwrite the weights with a same-architecture model trained (seeded)
	// differently: shapes match, content does not.
	f, err := os.Create(filepath.Join(ckptDir(root, hw.V100(), "default"), "weights.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := newTestModel(99).Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(root, Options{}); err == nil {
		t.Fatal("Open accepted swapped weights")
	} else if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("error = %v, want checksum mismatch", err)
	}
}

func TestOpenRejectsBadManifests(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"unknown platform", func(m *Manifest) { m.Platform = "Cray-1" }},
		{"unknown level", func(m *Manifest) { m.Level = "MegaGraph" }},
		{"bad version name", func(m *Manifest) { m.Name = "../escape" }},
		{"bad wscale", func(m *Manifest) { m.Scalers.WScale = 0 }},
		{"future format", func(m *Manifest) { m.FormatVersion = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			saveTest(t, root, hw.V100(), "default", 7)
			rewriteManifest(t, ckptDir(root, hw.V100(), "default"), tc.mutate)
			if _, err := Open(root, Options{}); err == nil {
				t.Error("Open accepted a broken manifest")
			}
		})
	}
}

func TestDefaultAlias(t *testing.T) {
	// An entry literally named "default" wins the alias.
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "aaa", 1)
	saveTest(t, root, hw.V100(), "default", 2)
	saveTest(t, root, hw.V100(), "zzz", 3)
	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Lookup(hw.V100().Name, "default")
	if err != nil {
		t.Fatal(err)
	}
	if e.Manifest.Name != "default" || !reg.Default(e) {
		t.Errorf("default alias = %q", e.Manifest.Name)
	}

	// Without one, the newest checkpoint wins.
	root2 := t.TempDir()
	saveTest(t, root2, hw.V100(), "v1", 1)
	saveTest(t, root2, hw.V100(), "v2", 2) // saved later → newer CreatedAt
	reg2, err := Open(root2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := reg2.Lookup(hw.V100().Name, "")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Manifest.Name != "v2" {
		t.Errorf("newest-wins default = %q, want v2", e2.Manifest.Name)
	}
}

func TestLookupErrors(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "default", 7)
	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup("IBM POWER9 (CPU)", ""); err == nil {
		t.Error("lookup of platform without checkpoints succeeded")
	}
	if _, err := reg.Lookup(hw.V100().Name, "nope"); err == nil {
		t.Error("lookup of unknown version succeeded")
	}
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("Open of empty root succeeded")
	}
}

func TestEvictionAndReload(t *testing.T) {
	root := t.TempDir()
	ma := saveTest(t, root, hw.V100(), "a", 1)
	mb := saveTest(t, root, hw.V100(), "b", 2)
	reg, err := Open(root, Options{MaxLoaded: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := reg.Stats(); st.Loaded != 1 || st.Checkpoints != 2 {
		t.Fatalf("after Open: %+v, want 1 of 2 loaded", st)
	}

	ea, err := reg.Lookup(hw.V100().Name, "a")
	if err != nil {
		t.Fatal(err)
	}
	eb, err := reg.Lookup(hw.V100().Name, "b")
	if err != nil {
		t.Fatal(err)
	}
	s := testSample(t)
	wantA := ma.PredictBatch([]*gnn.Sample{s})[0]
	wantB := mb.PredictBatch([]*gnn.Sample{s})[0]

	// Ping-pong between the two entries: each use evicts the other, and
	// predictions stay correct across reloads.
	for i := 0; i < 3; i++ {
		if got := ea.PredictBatch([]*gnn.Sample{s})[0]; got != wantA {
			t.Fatalf("iteration %d: a predicted %v, want %v", i, got, wantA)
		}
		if got := eb.PredictBatch([]*gnn.Sample{s})[0]; got != wantB {
			t.Fatalf("iteration %d: b predicted %v, want %v", i, got, wantB)
		}
	}
	st := reg.Stats()
	if st.Loaded != 1 {
		t.Errorf("loaded = %d, want 1", st.Loaded)
	}
	if st.Evictions < 5 {
		t.Errorf("evictions = %d, want >= 5", st.Evictions)
	}
	if ea.Loads() < 3 || eb.Loads() < 3 {
		t.Errorf("loads = %d/%d, want >= 3 each", ea.Loads(), eb.Loads())
	}
	if ea.Loaded() && eb.Loaded() {
		t.Error("both entries resident despite MaxLoaded=1")
	}
}

func TestPredictBatchAfterCheckpointVanishes(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "a", 1)
	saveTest(t, root, hw.V100(), "b", 2)
	reg, err := Open(root, Options{MaxLoaded: 1})
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := reg.Lookup(hw.V100().Name, "a")
	eb, _ := reg.Lookup(hw.V100().Name, "b")
	s := testSample(t)
	// Force a to be the evicted one, then delete its weights.
	eb.PredictBatch([]*gnn.Sample{s})
	if ea.Loaded() {
		t.Fatal("a still resident; test setup wrong")
	}
	if err := os.Remove(filepath.Join(ckptDir(root, hw.V100(), "a"), "weights.json")); err != nil {
		t.Fatal(err)
	}
	out := ea.PredictBatch([]*gnn.Sample{s})
	if len(out) != 1 || !math.IsNaN(out[0]) {
		t.Errorf("vanished checkpoint predicted %v, want NaN", out)
	}
}

func TestDiscoverSkipsPartialDirs(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "default", 7)
	// A version directory without a manifest (mid-write) is skipped.
	if err := os.MkdirAll(filepath.Join(root, PlatformSlug(hw.V100().Name), "partial"), 0o755); err != nil {
		t.Fatal(err)
	}
	cps, err := Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Errorf("discovered %d checkpoints, want 1", len(cps))
	}
}

func TestSaveRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", ".", "..", "a/b", "sp ace", "semi;colon"} {
		if _, err := Save(t.TempDir(), hw.V100(), name, paragraph.LevelParaGraph,
			newTestModel(1), testPrep(), TrainInfo{}); err == nil {
			t.Errorf("Save accepted name %q", name)
		}
	}
}

func TestPlatformSlug(t *testing.T) {
	cases := map[string]string{
		"NVIDIA V100 (GPU)":   "nvidia-v100-gpu",
		"IBM POWER9 (CPU)":    "ibm-power9-cpu",
		"AMD EPYC 7401 (CPU)": "amd-epyc-7401-cpu",
	}
	for in, want := range cases {
		if got := PlatformSlug(in); got != want {
			t.Errorf("PlatformSlug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []paragraph.Level{
		paragraph.LevelRawAST, paragraph.LevelAugmentedAST, paragraph.LevelParaGraph,
	} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLevel("nope"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}
