// Package policystore is the durable half of the policy lifecycle: a
// versioned on-disk store for scheduling-policy checkpoints.
//
// Policy artifacts outlive the process that trained them: training
// Puts versions, serving Gets them, and promotion — which version live
// traffic runs on — is an explicit, reversible store operation rather
// than an in-memory swap that dies with the process.
//
// Layout (one directory per version, all under the store root):
//
//	root/
//	  v000001/
//	    manifest.json    version, parent, created-at, config, metrics, CRCs
//	    params.bin       nn.Params.Serialize blob
//	  v000002/ ...
//	  CURRENT            JSON {active, previous} promotion pointer
//
// Durability rules:
//   - Put stages a version in a hidden temp directory and publishes it
//     with one os.Rename — readers never observe a partial version.
//   - The manifest carries the params blob's CRC32 (IEEE); Get verifies it,
//     and List skips versions whose manifest is missing or unparseable,
//     so a corrupt or half-written version is never served.
//   - Promote/Rollback rewrite CURRENT via temp file + rename, so the
//     active pointer is always either the old or the new value.
package policystore

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Manifest describes one stored policy version. It is the unit List
// returns and the metadata half of what Get returns.
type Manifest struct {
	// Version is the store-assigned, monotonically increasing ID.
	Version int `json:"version"`
	// Parent is the version this one was trained or fine-tuned from
	// (0 = none; versions start at 1).
	Parent int `json:"parent,omitempty"`
	// CreatedAtUnix is the publish time (Unix seconds).
	CreatedAtUnix int64 `json:"created_at_unix"`
	// Source labels the producer ("train", "bench", "import", ...).
	Source string `json:"source,omitempty"`
	// TrainConfig is a free-form summary of how the policy was produced
	// (episode counts, learning rate, benchmark...).
	TrainConfig string `json:"train_config,omitempty"`
	// Metrics holds evaluation metrics recorded at Put or Promote time
	// (e.g. avg_reward, avg_duration, shadow_agreement).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// ParamsCRC32 is the IEEE CRC of params.bin.
	ParamsCRC32 uint32 `json:"params_crc32"`
	// ParamsBytes is len(params.bin), a second cheap integrity check.
	ParamsBytes int `json:"params_bytes"`
}

// Checkpoint is a fully loaded, integrity-checked policy version.
type Checkpoint struct {
	Manifest Manifest
	// Params is the nn.Params.Serialize blob.
	Params []byte
}

// PutOptions carries the artifact and metadata for one Put.
type PutOptions struct {
	// Params is the serialized parameter blob (required).
	Params []byte
	// Parent, Source, TrainConfig, Metrics land in the manifest as-is.
	Parent      int
	Source      string
	TrainConfig string
	Metrics     map[string]float64
}

// current is the CURRENT pointer file's JSON shape.
type current struct {
	// Active is the promoted (serving) version, 0 when none.
	Active int `json:"active"`
	// Previous is the version Active replaced, kept for Rollback.
	Previous int `json:"previous,omitempty"`
}

const (
	manifestName  = "manifest.json"
	paramsName    = "params.bin"
	currentName   = "CURRENT"
	versionPrefix = "v"
	tempPrefix    = ".tmp-"
)

// Store is a versioned policy checkpoint store rooted at one directory.
// All methods are safe for concurrent use by multiple goroutines in one
// process; cross-process writers are serialized by the atomicity of
// rename but may race on version numbering (one writer per store is the
// intended deployment, matching one trainer per model).
type Store struct {
	// mu serializes mutations (Put's read-assign-rename of the next
	// version number, the CURRENT pointer read-modify-writes, GC).
	// Reads (List/Get/Latest/Active) only need it where they touch
	// CURRENT; version directories are immutable once published.
	mu   sync.Mutex
	root string
	// now is stubbed in tests for stable manifests.
	now func() time.Time
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("policystore: empty store path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("policystore: open %s: %w", dir, err)
	}
	return &Store{root: dir, now: time.Now}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// versionDir formats the directory name of a version.
func versionDir(v int) string { return fmt.Sprintf("%s%06d", versionPrefix, v) }

// parseVersionDir returns the version of a directory entry name, or 0
// when the name is not a version directory.
func parseVersionDir(name string) int {
	if !strings.HasPrefix(name, versionPrefix) {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimPrefix(name, versionPrefix))
	if err != nil || n <= 0 {
		return 0
	}
	return n
}

// versionNumbers returns every version number that has a directory,
// ascending, including versions whose content may be corrupt (List
// filters those; GC must see them to delete them).
func (s *Store) versionNumbers() ([]int, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("policystore: read %s: %w", s.root, err)
	}
	var out []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if v := parseVersionDir(e.Name()); v > 0 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// readManifest loads and sanity-checks one version's manifest. Unknown
// fields are ignored, so manifests that still carry the retired
// experience_crc32/experience_bytes fields load as before.
func (s *Store) readManifest(v int) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(s.root, versionDir(v), manifestName))
	if err != nil {
		return m, fmt.Errorf("policystore: version %d: %w", v, err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("policystore: version %d: bad manifest: %w", v, err)
	}
	if m.Version != v {
		return m, fmt.Errorf("policystore: version %d: manifest claims version %d", v, m.Version)
	}
	return m, nil
}

// List returns the manifests of every readable version, ascending by
// version. Versions with a missing or unparseable manifest are skipped —
// they exist on disk (GC can remove them) but are never served.
func (s *Store) List() ([]Manifest, error) {
	versions, err := s.versionNumbers()
	if err != nil {
		return nil, err
	}
	out := make([]Manifest, 0, len(versions))
	for _, v := range versions {
		m, err := s.readManifest(v)
		if err != nil {
			continue // corrupt or half-written: skip, never serve
		}
		out = append(out, m)
	}
	return out, nil
}

// Latest returns the highest version whose blobs pass integrity checks,
// or an error when the store holds no loadable version. Corrupt tail
// versions are skipped: a crash during training must never make the
// newest-but-broken artifact win over the last good one.
func (s *Store) Latest() (*Checkpoint, error) {
	versions, err := s.versionNumbers()
	if err != nil {
		return nil, err
	}
	for i := len(versions) - 1; i >= 0; i-- {
		ck, err := s.Get(versions[i])
		if err == nil {
			return ck, nil
		}
	}
	return nil, fmt.Errorf("policystore: no loadable versions in %s", s.root)
}

// Get loads one version, verifying blob sizes and CRCs against the
// manifest. Any mismatch is an error — a corrupt version is never
// returned partially.
func (s *Store) Get(v int) (*Checkpoint, error) {
	m, err := s.readManifest(v)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(s.root, versionDir(v))
	params, err := os.ReadFile(filepath.Join(dir, paramsName))
	if err != nil {
		return nil, fmt.Errorf("policystore: version %d: %w", v, err)
	}
	if len(params) != m.ParamsBytes || crc32.ChecksumIEEE(params) != m.ParamsCRC32 {
		return nil, fmt.Errorf("policystore: version %d: params blob corrupt (%d bytes, crc %08x; manifest says %d bytes, crc %08x)",
			v, len(params), crc32.ChecksumIEEE(params), m.ParamsBytes, m.ParamsCRC32)
	}
	return &Checkpoint{Manifest: m, Params: params}, nil
}

// Put stores a new version and returns its number. The version is
// staged in a temp directory and published with a single rename, so a
// reader (or a crash) never observes a partial version.
func (s *Store) Put(opts PutOptions) (int, error) {
	if len(opts.Params) == 0 {
		return 0, fmt.Errorf("policystore: Put requires a params blob")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	versions, err := s.versionNumbers()
	if err != nil {
		return 0, err
	}
	v := 1
	if len(versions) > 0 {
		v = versions[len(versions)-1] + 1
	}
	m := Manifest{
		Version:       v,
		Parent:        opts.Parent,
		CreatedAtUnix: s.now().Unix(),
		Source:        opts.Source,
		TrainConfig:   opts.TrainConfig,
		Metrics:       opts.Metrics,
		ParamsCRC32:   crc32.ChecksumIEEE(opts.Params),
		ParamsBytes:   len(opts.Params),
	}
	tmp, err := os.MkdirTemp(s.root, tempPrefix)
	if err != nil {
		return 0, fmt.Errorf("policystore: stage version %d: %w", v, err)
	}
	defer os.RemoveAll(tmp) // no-op after successful rename
	if err := writeFileSync(filepath.Join(tmp, paramsName), opts.Params); err != nil {
		return 0, err
	}
	mdata, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("policystore: encode manifest: %w", err)
	}
	if err := writeFileSync(filepath.Join(tmp, manifestName), mdata); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(s.root, versionDir(v))); err != nil {
		return 0, fmt.Errorf("policystore: publish version %d: %w", v, err)
	}
	return v, nil
}

// UpdateMetrics merges metrics into an existing version's manifest
// (e.g. shadow-evaluation scores recorded after the fact). The manifest
// is rewritten atomically.
func (s *Store) UpdateMetrics(v int, metrics map[string]float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.readManifest(v)
	if err != nil {
		return err
	}
	if m.Metrics == nil {
		m.Metrics = make(map[string]float64, len(metrics))
	}
	for k, val := range metrics {
		m.Metrics[k] = val
	}
	mdata, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("policystore: encode manifest: %w", err)
	}
	return s.replaceFile(filepath.Join(s.root, versionDir(v), manifestName), mdata)
}

// readCurrent loads the CURRENT pointer (zero value when absent).
func (s *Store) readCurrent() (current, error) {
	var c current
	data, err := os.ReadFile(filepath.Join(s.root, currentName))
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return c, fmt.Errorf("policystore: read CURRENT: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("policystore: bad CURRENT: %w", err)
	}
	return c, nil
}

// writeCurrent atomically replaces the CURRENT pointer.
func (s *Store) writeCurrent(c current) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("policystore: encode CURRENT: %w", err)
	}
	return s.replaceFile(filepath.Join(s.root, currentName), data)
}

// Active returns the promoted version number (0 when none is promoted).
func (s *Store) Active() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.readCurrent()
	return c.Active, err
}

// Promote marks a version as the one live traffic should serve. The
// version must load cleanly — promotion of a corrupt artifact is
// refused. The previously active version is remembered for Rollback.
func (s *Store) Promote(v int) error {
	if _, err := s.Get(v); err != nil {
		return fmt.Errorf("policystore: refusing to promote: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.readCurrent()
	if err != nil {
		return err
	}
	if c.Active == v {
		return nil
	}
	return s.writeCurrent(current{Active: v, Previous: c.Active})
}

// Rollback reverts the active pointer to the version the last Promote
// replaced and returns the version now active. It is an error when
// there is nothing to roll back to.
func (s *Store) Rollback() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.readCurrent()
	if err != nil {
		return 0, err
	}
	if c.Previous == 0 {
		return 0, fmt.Errorf("policystore: nothing to roll back to (active=%d)", c.Active)
	}
	if err := s.writeCurrent(current{Active: c.Previous}); err != nil {
		return 0, err
	}
	return c.Previous, nil
}

// GC deletes old versions, keeping the newest `retain` loadable
// versions plus whatever CURRENT points at (active and previous are
// never collected). Corrupt versions are always deleted. It returns the
// version numbers removed.
func (s *Store) GC(retain int) ([]int, error) {
	if retain < 1 {
		retain = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	versions, err := s.versionNumbers()
	if err != nil {
		return nil, err
	}
	c, err := s.readCurrent()
	if err != nil {
		return nil, err
	}
	keep := make(map[int]bool, retain+2)
	if c.Active > 0 {
		keep[c.Active] = true
	}
	if c.Previous > 0 {
		keep[c.Previous] = true
	}
	kept := 0
	for i := len(versions) - 1; i >= 0 && kept < retain; i-- {
		if _, err := s.readManifest(versions[i]); err != nil {
			continue // corrupt: collectible regardless of age
		}
		if !keep[versions[i]] {
			kept++
		}
		keep[versions[i]] = true
	}
	var removed []int
	for _, v := range versions {
		if keep[v] {
			continue
		}
		if err := os.RemoveAll(filepath.Join(s.root, versionDir(v))); err != nil {
			return removed, fmt.Errorf("policystore: gc version %d: %w", v, err)
		}
		removed = append(removed, v)
	}
	// Orphaned temp directories from crashed Puts are garbage too.
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return removed, nil
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), tempPrefix) {
			os.RemoveAll(filepath.Join(s.root, e.Name()))
		}
	}
	return removed, nil
}

// writeFileSync writes data and fsyncs before closing, so a published
// rename never points at pages the kernel hasn't flushed.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("policystore: write %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("policystore: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("policystore: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("policystore: close %s: %w", path, err)
	}
	return nil
}

// replaceFile atomically replaces path's contents via temp file +
// rename in the same directory.
func (s *Store) replaceFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tempPrefix+"f-")
	if err != nil {
		return fmt.Errorf("policystore: stage %s: %w", path, err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("policystore: stage %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("policystore: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("policystore: close %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("policystore: replace %s: %w", path, err)
	}
	return nil
}
