// Package registry persists trained cost models as versioned checkpoints
// and serves them back without retraining. A checkpoint is a directory
// holding the model weights (gnn.Model.Save) next to a JSON manifest that
// records everything needed to reconstruct the serving stack around them:
// the gnn.Config architecture, the platform, the representation level, the
// training-time feature/target scalers, a weights checksum, and training
// stats. The layout under a registry root is
//
//	<root>/<platform-slug>/<version>/manifest.json
//	<root>/<platform-slug>/<version>/weights.json
//
// so one platform can carry several named versions (training scales,
// representation levels, A/B candidates) side by side; each platform gets a
// default alias (a version literally named "default", else the newest).
//
// A Registry opened over such a root verifies every checkpoint eagerly
// (config/weights mismatches and checksum drift fail Open, not a later
// request), then keeps at most MaxLoaded models resident: entries are
// loaded on first use and evicted least-recently-used, so a fleet of
// checkpoints can be served from bounded memory. Entry implements the
// serving layer's BatchPredictor, which is how cmd/serve plugs checkpoints
// straight into its batcher without knowing about files.
package registry

import (
	"container/list"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
)

const (
	// FormatVersion is the manifest schema version this package writes.
	FormatVersion = 1

	manifestFile = "manifest.json"
	weightsFile  = "weights.json"
)

// Scalers carries the training-time normalization a served model cannot
// predict without (dataset.Prepared's scaler set).
type Scalers struct {
	Target dataset.Scaler `json:"target"` // log(runtime µs) → [0,1]
	Team   dataset.Scaler `json:"team"`
	Thread dataset.Scaler `json:"thread"`
	WScale float64        `json:"w_scale"`
}

// TrainInfo records how a checkpoint was produced, for /v1/models and ops.
type TrainInfo struct {
	Scale        string  `json:"scale,omitempty"`
	Epochs       int     `json:"epochs"`
	TrainSamples int     `json:"train_samples"`
	ValSamples   int     `json:"val_samples"`
	FinalValRMSE float64 `json:"final_val_rmse"`
}

// Manifest is the JSON sidecar of one checkpoint.
type Manifest struct {
	FormatVersion int        `json:"format_version"`
	Platform      string     `json:"platform"`
	Name          string     `json:"name"`  // version name within the platform
	Level         string     `json:"level"` // paragraph.Level.String()
	CreatedAt     time.Time  `json:"created_at"`
	Config        gnn.Config `json:"config"`
	Params        int        `json:"params"` // scalar parameter count
	Checksum      string     `json:"weights_checksum"`
	Scalers       Scalers    `json:"scalers"`
	Train         TrainInfo  `json:"train"`
}

// ParseLevel inverts paragraph.Level.String for manifest round-trips.
func ParseLevel(s string) (paragraph.Level, error) {
	for _, l := range []paragraph.Level{
		paragraph.LevelRawAST, paragraph.LevelAugmentedAST, paragraph.LevelParaGraph,
	} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("registry: unknown representation level %q", s)
}

// CheckName validates a checkpoint version name without touching disk, so
// CLIs can reject a bad -save-name before spending a training run on it.
func CheckName(name string) error { return validName(name) }

// validName guards version names (and platform slugs) so the registry
// layout stays one directory per checkpoint and names survive a filesystem
// round-trip.
func validName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("registry: invalid checkpoint name %q", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("registry: checkpoint name %q: only [a-zA-Z0-9._-] allowed", name)
		}
	}
	return nil
}

// PlatformSlug renders a machine name as a directory name
// ("NVIDIA V100 (GPU)" → "nvidia-v100-gpu"). The manifest keeps the real
// name; the slug only shapes the layout.
func PlatformSlug(name string) string {
	var b strings.Builder
	lastDash := true // suppress leading dash
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// Save writes one checkpoint under root and returns its directory. The
// weights land first (via a temp file + rename so a crash never leaves a
// manifest pointing at half-written weights), then the manifest makes the
// checkpoint visible to Discover.
func Save(root string, m hw.Machine, name string, level paragraph.Level,
	model *gnn.Model, prep *dataset.Prepared, info TrainInfo) (string, error) {
	if err := validName(name); err != nil {
		return "", err
	}
	if model == nil || prep == nil {
		return "", fmt.Errorf("registry: model and prepared dataset required")
	}
	dir := filepath.Join(root, PlatformSlug(m.Name), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("registry: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, weightsFile), func(f *os.File) error {
		return model.Save(f)
	}); err != nil {
		return "", fmt.Errorf("registry: writing weights: %w", err)
	}
	man := Manifest{
		FormatVersion: FormatVersion,
		Platform:      m.Name,
		Name:          name,
		Level:         level.String(),
		CreatedAt:     time.Now().UTC(),
		Config:        model.Config(),
		Params:        model.NumParams(),
		Checksum:      model.Checksum(),
		Scalers: Scalers{
			Target: prep.TargetScaler,
			Team:   prep.TeamScaler,
			Thread: prep.ThreadScaler,
			WScale: prep.WScale,
		},
		Train: info,
	}
	err := writeFileAtomic(filepath.Join(dir, manifestFile), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(man)
	})
	if err != nil {
		return "", fmt.Errorf("registry: writing manifest: %w", err)
	}
	return dir, nil
}

// writeFileAtomic writes via a temp file in the target directory and
// renames it into place.
func writeFileAtomic(path string, write func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// Checkpoint is one discovered (not yet loaded) checkpoint.
type Checkpoint struct {
	Dir      string
	Manifest Manifest
}

// Discover scans root for checkpoints (any <root>/*/*/manifest.json). A
// directory without a manifest is skipped silently — it may be a checkpoint
// mid-write — but a manifest that fails to parse is an error.
func Discover(root string) ([]Checkpoint, error) {
	platDirs, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var cps []Checkpoint
	for _, pd := range platDirs {
		if !pd.IsDir() {
			continue
		}
		verDirs, err := os.ReadDir(filepath.Join(root, pd.Name()))
		if err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		for _, vd := range verDirs {
			if !vd.IsDir() {
				continue
			}
			dir := filepath.Join(root, pd.Name(), vd.Name())
			raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("registry: %w", err)
			}
			var man Manifest
			if err := json.Unmarshal(raw, &man); err != nil {
				return nil, fmt.Errorf("registry: %s: bad manifest: %w", dir, err)
			}
			if man.FormatVersion != FormatVersion {
				return nil, fmt.Errorf("registry: %s: unsupported manifest format %d", dir, man.FormatVersion)
			}
			cps = append(cps, Checkpoint{Dir: dir, Manifest: man})
		}
	}
	sort.Slice(cps, func(i, j int) bool {
		if cps[i].Manifest.Platform != cps[j].Manifest.Platform {
			return cps[i].Manifest.Platform < cps[j].Manifest.Platform
		}
		return cps[i].Manifest.Name < cps[j].Manifest.Name
	})
	return cps, nil
}

// Options tunes a Registry.
type Options struct {
	// MaxLoaded bounds the models resident in memory; least-recently-used
	// entries beyond it are evicted (and transparently reloaded from disk
	// on next use). <= 0 defaults to 8.
	MaxLoaded int
}

// Registry serves the checkpoints under one root directory.
type Registry struct {
	root      string
	maxLoaded int

	mu       sync.Mutex
	entries  map[string]*Entry // platform + "\x00" + name
	byPlat   map[string][]*Entry
	defaults map[string]*Entry
	loaded   *list.List // of *Entry; front = most recently used

	loads, evictions uint64
}

// Entry is one registered checkpoint. It implements the serving layer's
// BatchPredictor: PredictBatch loads the model from disk on first use (and
// after eviction) and delegates to it, so callers can hold Entries for
// every checkpoint while only MaxLoaded models occupy memory.
type Entry struct {
	reg      *Registry
	Dir      string
	Manifest Manifest
	Machine  hw.Machine
	Level    paragraph.Level
	// Prep carries the manifest's scalers in the shape the advisor wants
	// (Train/Val are empty; serving never touches them).
	Prep *dataset.Prepared

	loadMu sync.Mutex
	model  *gnn.Model
	elem   *list.Element
	loads  uint64
}

// Open discovers, validates and indexes every checkpoint under root. Each
// model is loaded once up front — a config/weights mismatch or checksum
// drift fails here, not mid-request — then the resident set is trimmed to
// MaxLoaded.
func Open(root string, opts Options) (*Registry, error) {
	if opts.MaxLoaded <= 0 {
		opts.MaxLoaded = 8
	}
	cps, err := Discover(root)
	if err != nil {
		return nil, err
	}
	if len(cps) == 0 {
		return nil, fmt.Errorf("registry: no checkpoints under %s", root)
	}
	r := &Registry{
		root:      root,
		maxLoaded: opts.MaxLoaded,
		entries:   map[string]*Entry{},
		byPlat:    map[string][]*Entry{},
		defaults:  map[string]*Entry{},
		loaded:    list.New(),
	}
	for _, cp := range cps {
		e, err := r.newEntry(cp)
		if err != nil {
			return nil, err
		}
		key := entryKey(e.Manifest.Platform, e.Manifest.Name)
		if _, dup := r.entries[key]; dup {
			return nil, fmt.Errorf("registry: duplicate checkpoint %s/%s", e.Manifest.Platform, e.Manifest.Name)
		}
		r.entries[key] = e
		r.byPlat[e.Manifest.Platform] = append(r.byPlat[e.Manifest.Platform], e)
		// Verify now: Open fails fast on broken checkpoints.
		if _, err := e.acquire(); err != nil {
			return nil, err
		}
	}
	for plat, es := range r.byPlat {
		r.defaults[plat] = pickDefault(es)
	}
	return r, nil
}

func entryKey(platform, name string) string { return platform + "\x00" + name }

// newEntry validates a discovered checkpoint's manifest and builds its
// (unloaded) entry.
func (r *Registry) newEntry(cp Checkpoint) (*Entry, error) {
	man := cp.Manifest
	machine, err := hw.ByName(man.Platform)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", cp.Dir, err)
	}
	level, err := ParseLevel(man.Level)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", cp.Dir, err)
	}
	if err := validName(man.Name); err != nil {
		return nil, fmt.Errorf("registry: %s: %w", cp.Dir, err)
	}
	if man.Scalers.WScale <= 0 {
		return nil, fmt.Errorf("registry: %s: manifest w_scale %g must be positive", cp.Dir, man.Scalers.WScale)
	}
	return &Entry{
		reg:      r,
		Dir:      cp.Dir,
		Manifest: man,
		Machine:  machine,
		Level:    level,
		Prep: &dataset.Prepared{
			TargetScaler: man.Scalers.Target,
			TeamScaler:   man.Scalers.Team,
			ThreadScaler: man.Scalers.Thread,
			WScale:       man.Scalers.WScale,
		},
	}, nil
}

// pickDefault resolves a platform's default alias: a version literally
// named "default" wins, else the newest CreatedAt (name as tiebreak).
func pickDefault(es []*Entry) *Entry {
	best := es[0]
	for _, e := range es[1:] {
		if best.Manifest.Name == "default" {
			break
		}
		switch {
		case e.Manifest.Name == "default":
			best = e
		case e.Manifest.CreatedAt.After(best.Manifest.CreatedAt):
			best = e
		case e.Manifest.CreatedAt.Equal(best.Manifest.CreatedAt) && e.Manifest.Name < best.Manifest.Name:
			best = e
		}
	}
	return best
}

// Lookup resolves a (platform, version) pair; an empty or "default" name
// follows the platform's default alias.
func (r *Registry) Lookup(platform, name string) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == "" || name == "default" {
		if e, ok := r.defaults[platform]; ok {
			return e, nil
		}
		return nil, fmt.Errorf("registry: no checkpoints for platform %q", platform)
	}
	if e, ok := r.entries[entryKey(platform, name)]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("registry: no checkpoint %s/%s", platform, name)
}

// Default reports whether e is its platform's default alias.
func (r *Registry) Default(e *Entry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.defaults[e.Manifest.Platform] == e
}

// Platforms lists the platforms with at least one checkpoint, sorted.
func (r *Registry) Platforms() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byPlat))
	for p := range r.byPlat {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Entries lists every checkpoint, sorted by (platform, name).
func (r *Registry) Entries() []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Entry
	for _, es := range r.byPlat {
		out = append(out, es...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Manifest.Platform != out[j].Manifest.Platform {
			return out[i].Manifest.Platform < out[j].Manifest.Platform
		}
		return out[i].Manifest.Name < out[j].Manifest.Name
	})
	return out
}

// Stats is the registry's counter snapshot.
type Stats struct {
	Checkpoints int    `json:"checkpoints"`
	Loaded      int    `json:"loaded"`
	MaxLoaded   int    `json:"max_loaded"`
	Loads       uint64 `json:"loads"`     // disk loads, including Open's verification pass
	Evictions   uint64 `json:"evictions"` // models dropped by the LRU bound
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Checkpoints: len(r.entries),
		Loaded:      r.loaded.Len(),
		MaxLoaded:   r.maxLoaded,
		Loads:       r.loads,
		Evictions:   r.evictions,
	}
}

// PredictBatch implements the serving layer's BatchPredictor over the
// lazily-loaded model. A load failure (checkpoint deleted or corrupted
// under a live registry) yields NaN predictions; the serving layer turns
// NaN rankings into request errors, so the process stays up.
func (e *Entry) PredictBatch(samples []*gnn.Sample) []float64 {
	m, err := e.acquire()
	if err != nil {
		out := make([]float64, len(samples))
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	return m.PredictBatch(samples)
}

// Loaded reports whether the entry's model is currently resident.
func (e *Entry) Loaded() bool {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	return e.model != nil
}

// Loads returns how many times this entry was loaded from disk.
func (e *Entry) Loads() uint64 {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	return e.loads
}

// acquire returns the entry's model, loading it from disk (and evicting the
// registry's least-recently-used entry beyond MaxLoaded) when needed.
func (e *Entry) acquire() (*gnn.Model, error) {
	r := e.reg
	r.mu.Lock()
	if e.model != nil {
		r.loaded.MoveToFront(e.elem)
		m := e.model
		r.mu.Unlock()
		return m, nil
	}
	r.mu.Unlock()

	// Load outside the registry lock (other entries keep serving); the
	// per-entry mutex collapses concurrent loads of the same checkpoint.
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	r.mu.Lock()
	if e.model != nil {
		r.loaded.MoveToFront(e.elem)
		m := e.model
		r.mu.Unlock()
		return m, nil
	}
	r.mu.Unlock()

	m, err := e.loadModel()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	e.model = m
	e.elem = r.loaded.PushFront(e)
	e.loads++
	r.loads++
	for r.loaded.Len() > r.maxLoaded {
		victim := r.loaded.Remove(r.loaded.Back()).(*Entry)
		victim.model = nil
		victim.elem = nil
		r.evictions++
	}
	r.mu.Unlock()
	return m, nil
}

// loadModel reads and verifies the weights file against the manifest, then
// builds the model's derived inference weights (precomputed attention
// projections) so the first request served pays no one-time build cost.
func (e *Entry) loadModel() (*gnn.Model, error) {
	f, err := os.Open(filepath.Join(e.Dir, weightsFile))
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", e.Dir, err)
	}
	defer f.Close()
	m := gnn.NewModel(e.Manifest.Config)
	if err := m.Load(f); err != nil {
		return nil, fmt.Errorf("registry: %s: config/weights mismatch: %w", e.Dir, err)
	}
	if e.Manifest.Checksum != "" && m.Checksum() != e.Manifest.Checksum {
		return nil, fmt.Errorf("registry: %s: weights checksum mismatch (manifest %.12s…, file %.12s…)",
			e.Dir, e.Manifest.Checksum, m.Checksum())
	}
	m.PrecomputeInference()
	return m, nil
}
