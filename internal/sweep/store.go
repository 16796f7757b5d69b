package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"spcoh/internal/detutil"
	"spcoh/internal/sim"
)

// manifestName is the store's index file inside the store directory.
const manifestName = "manifest.json"

// manifestVersion guards the on-disk schema; a mismatch invalidates the
// whole store (cells are recomputed, never misread).
const manifestVersion = 1

// Store is the resumable artifact store of a sweep. Layout:
//
//	<dir>/<digest>.json   one completed job: {job spec, result}
//	<dir>/manifest.json   index: job key → {digest, checksum, seed}
//
// Artifacts are addressed by Job.Digest (the hash of the job's canonical
// spec), so a resumed or re-issued sweep finds a finished cell without
// recomputing it; the manifest's checksum (SHA-256 of the artifact file
// bytes) detects torn or corrupted artifacts, which are silently treated
// as missing and recomputed. Writes are atomic (temp file + rename) and
// the manifest is re-persisted after every Put, so an interrupt at any
// point leaves a consistent store.
//
// A Store is safe for concurrent use by the engine's workers.
type Store struct {
	dir string

	mu  sync.Mutex
	man *Manifest
}

// Manifest indexes a store directory.
type Manifest struct {
	Version      int                      `json:"version"`
	MatrixDigest string                   `json:"matrix_digest,omitempty"`
	Matrix       *Matrix                  `json:"matrix,omitempty"`
	Jobs         map[string]ManifestEntry `json:"jobs"`

	// Sweeps registers every matrix submitted to a sweepd server sharing
	// this store, keyed by matrix digest. A restarted server re-adopts
	// them and resumes with zero recomputation. Additive: local
	// spsweep run/resume keep using the singular Matrix field.
	Sweeps map[string]*Matrix `json:"sweeps,omitempty"`

	// Failed is the failure ledger: job key → last error message for
	// cells whose final attempt cycle failed. A later successful Put
	// clears the key. spsweep status gates its exit code on this, so CI
	// can distinguish "interrupted" from "broken".
	Failed map[string]string `json:"failed,omitempty"`
}

// ManifestEntry records one completed job.
type ManifestEntry struct {
	Digest   string `json:"digest"`   // artifact address (= Job.Digest)
	Checksum string `json:"checksum"` // SHA-256 of the artifact file bytes
	Seed     int64  `json:"seed"`
}

// artifact is the on-disk payload of one completed job.
type artifact struct {
	Job    Job         `json:"job"`
	Result *sim.Result `json:"result"`
}

// Open opens (creating if necessary) the store at dir and loads its
// manifest. A manifest with an unknown schema version is discarded.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	s := &Store{dir: dir, man: &Manifest{Version: manifestVersion, Jobs: make(map[string]ManifestEntry)}}
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: read manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil || man.Version != manifestVersion {
		// Unreadable or foreign manifest: start fresh rather than trusting it.
		return s, nil
	}
	if man.Jobs == nil {
		man.Jobs = make(map[string]ManifestEntry)
	}
	s.man = &man
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// HasManifestFile reports whether a manifest has ever been persisted — the
// distinction between "fresh directory" and "interrupted sweep" that the
// resume subcommand needs.
func (s *Store) HasManifestFile() bool {
	_, err := os.Stat(filepath.Join(s.dir, manifestName))
	return err == nil
}

// SetMatrix records the sweep's matrix in the manifest (run writes it so
// that resume and status can re-derive the job set with no flags).
func (s *Store) SetMatrix(m Matrix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mm := m
	s.man.Matrix = &mm
	s.man.MatrixDigest = m.Digest()
	return s.saveLocked()
}

// Matrix returns the recorded sweep matrix, if any.
func (s *Store) Matrix() (Matrix, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man.Matrix == nil {
		return Matrix{}, false
	}
	return *s.man.Matrix, true
}

// Lookup returns the stored result for j, verifying the artifact against
// the manifest checksum. Any inconsistency — missing entry, digest
// mismatch after a spec change, unreadable file, checksum or decode
// failure — reports a miss, making corruption indistinguishable from
// "never computed".
func (s *Store) Lookup(j Job) (*sim.Result, bool) {
	s.mu.Lock()
	e, ok := s.man.Jobs[j.Key()]
	s.mu.Unlock()
	if !ok || e.Digest != j.Digest() {
		return nil, false
	}
	b, err := os.ReadFile(filepath.Join(s.dir, e.Digest+".json"))
	if err != nil || checksum(b) != e.Checksum {
		return nil, false
	}
	var a artifact
	if json.Unmarshal(b, &a) != nil || a.Result == nil || a.Job.Key() != j.Key() {
		return nil, false
	}
	return a.Result, true
}

// Put checkpoints one completed job: the artifact is written atomically,
// then the manifest is updated and re-persisted.
func (s *Store) Put(j Job, res *sim.Result) error {
	b, err := json.MarshalIndent(artifact{Job: j, Result: res}, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encode artifact %s: %w", j.Key(), err)
	}
	digest := j.Digest()
	if err := atomicWrite(filepath.Join(s.dir, digest+".json"), b); err != nil {
		return fmt.Errorf("sweep: write artifact %s: %w", j.Key(), err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.man.Jobs[j.Key()] = ManifestEntry{Digest: digest, Checksum: checksum(b), Seed: j.Seed}
	delete(s.man.Failed, j.Key()) // success clears the failure ledger
	return s.saveLocked()
}

// MarkFailed records a job's terminal failure in the manifest's failure
// ledger. A later successful Put clears it.
func (s *Store) MarkFailed(j Job, msg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man.Failed == nil {
		s.man.Failed = make(map[string]string)
	}
	s.man.Failed[j.Key()] = msg
	return s.saveLocked()
}

// FailedCells returns a copy of the failure ledger: job key → last error.
func (s *Store) FailedCells() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.man.Failed))
	for _, k := range detutil.SortedKeys(s.man.Failed) {
		out[k] = s.man.Failed[k]
	}
	return out
}

// AddSweep registers a sweepd-submitted matrix under its digest so a
// restarted server can re-adopt it. Registering the same matrix twice is
// a no-op.
func (s *Store) AddSweep(m Matrix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man.Sweeps == nil {
		s.man.Sweeps = make(map[string]*Matrix)
	}
	mm := m
	s.man.Sweeps[m.Digest()] = &mm
	return s.saveLocked()
}

// SweepIDs returns the registered sweep digests, sorted.
func (s *Store) SweepIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return detutil.SortedKeys(s.man.Sweeps)
}

// Sweep returns the matrix registered under id.
func (s *Store) Sweep(id string) (Matrix, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.man.Sweeps[id]
	if !ok {
		return Matrix{}, false
	}
	return *m, true
}

// Completed returns the keys of all checkpointed jobs, sorted.
func (s *Store) Completed() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return detutil.SortedKeys(s.man.Jobs)
}

// saveLocked persists the manifest; the caller holds s.mu.
func (s *Store) saveLocked() error {
	// Sorted-key map encoding is guaranteed by encoding/json.
	b, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encode manifest: %w", err)
	}
	if err := atomicWrite(filepath.Join(s.dir, manifestName), b); err != nil {
		return fmt.Errorf("sweep: write manifest: %w", err)
	}
	return nil
}

// atomicWrite writes data to path via a temp file + rename so readers
// never observe a torn file.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func checksum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
