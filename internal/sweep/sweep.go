// Package sweep is the parallel sweep orchestration engine: it expands a
// job matrix (benchmark × configuration × seed × scale) into independent
// simulation jobs, executes them on a bounded worker pool, and merges the
// results deterministically.
//
// The package sits *above* the discrete-event simulator: every job it
// schedules is one complete, single-threaded, deterministic simulation
// (see internal/sim), so running jobs concurrently cannot perturb any
// result — a sweep on N workers is byte-identical to the same sweep on
// one worker. Three rules keep that guarantee:
//
//   - jobs are identified and ordered by Job.Key, never by completion
//     order: workers write into per-job slots and the merged report is
//     always in key order;
//   - rendered output (FormatTable/FormatCSV/FormatJSON) carries no wall
//     times or cache provenance — those live in the side-band Summary,
//     which is allowed to differ between runs;
//   - artifacts are addressed by the digest of the job's canonical spec,
//     so a resumed sweep recalls exactly the cells it already computed.
//
// The orchestrator is exempt from spvet's SimOnly goroutine/wallclock
// checks (see lint.DefaultIsSim) but remains subject to maprange and
// floatorder; map iteration here goes through detutil.SortedKeys.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"spcoh/internal/experiments"
	"spcoh/internal/protocol"
	"spcoh/internal/runcfg"
	"spcoh/internal/workload"
)

// Job is one independent cell of a sweep matrix: a single simulation of
// one benchmark under one predictor/protocol configuration at a given
// thread count, workload scale and seed.
//
// The embedded RunConfig inlines its fields into the job's canonical JSON
// exactly where the old hand-declared threads/scale/seed/metrics_epoch
// fields sat, so Digest — and therefore every previously-recorded artifact
// address — is unchanged by the consolidation.
type Job struct {
	Bench string `json:"bench"`
	Kind  string `json:"kind"`

	runcfg.RunConfig

	// SpecDigest, when non-empty, marks a scenario-spec cell: Bench is the
	// spec's name and the program is built from the spec file rather than a
	// built-in profile. The digest — not the path — joins the identity, so
	// moving a spec file preserves its artifacts while editing it forces
	// recomputation. omitempty keeps built-in cells' digests unchanged.
	SpecDigest string `json:"spec,omitempty"`

	// SpecPath locates the spec file at execution time. Transport only:
	// excluded from the canonical encoding (identity is SpecDigest) and
	// re-resolved from the matrix on resume.
	SpecPath string `json:"-"`
}

// Key returns the canonical sortable identity of the job, e.g.
// "ocean/sp/t16/x0.25/s42". Reports and merged outputs are ordered by
// this key. Metrics-enabled cells append "/m<epoch>"; scenario-spec cells
// append "/g<digest prefix>" (distinct spec contents must not collide even
// if their names do); fast-mode cells append "/fast" (the two fidelities
// of one cell are distinct jobs with distinct artifacts — detailed cells
// keep their legacy keys).
func (j Job) Key() string {
	key := j.Bench + "/" + j.Kind +
		"/t" + strconv.Itoa(j.Threads) +
		"/x" + strconv.FormatFloat(j.Scale, 'g', -1, 64) +
		"/s" + strconv.FormatInt(j.Seed, 10)
	if j.MetricsEpoch != 0 {
		key += "/m" + strconv.FormatUint(j.MetricsEpoch, 10)
	}
	if j.SpecDigest != "" {
		d := j.SpecDigest
		if len(d) > 12 {
			d = d[:12]
		}
		key += "/g" + d
	}
	if j.FastMode() {
		key += "/fast"
	}
	return key
}

// Digest returns the job's content address: the SHA-256 of its canonical
// JSON spec. Artifacts are stored under this digest, so changing any field
// of the spec relocates the artifact and forces recomputation; two sweeps
// sharing a cell share its artifact.
func (j Job) Digest() string {
	b, err := json.Marshal(j)
	if err != nil {
		// A struct of scalars cannot fail to marshal.
		panic("sweep: job digest: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// SpecRef names one scenario-spec workload of a sweep: resolved (digest
// computed, name read) when the matrix is assembled, so expansion and
// resume never re-read spec files to identify cells. Path is recorded in
// the manifest for resume to locate the file again.
type SpecRef struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Digest string `json:"digest"`
}

// Matrix spans a sweep: the cross product of its dimensions.
type Matrix struct {
	Benches []string `json:"benches"`

	// Specs adds scenario-spec workloads alongside the built-in benchmarks;
	// each crosses the same kinds × scales × seeds dimensions.
	Specs []SpecRef `json:"specs,omitempty"`

	Kinds   []string  `json:"kinds"`
	Seeds   []int64   `json:"seeds"`
	Scales  []float64 `json:"scales"`
	Threads int       `json:"threads"`

	// MetricsEpoch applies to every cell of the matrix (0 = no metrics).
	MetricsEpoch uint64 `json:"metrics_epoch,omitempty"`

	// Mode applies to every cell of the matrix: "" or "detailed" for the
	// cycle-level model, "fast" for the fast functional model. The mode
	// joins each cell's key and digest, so the two fidelities of one
	// matrix never collide in the artifact store.
	Mode string `json:"mode,omitempty"`
}

// Jobs expands the cross product into jobs sorted by Key. Cells whose
// dimensions collide on the same key (duplicate dimension values) are
// collapsed.
func (m Matrix) Jobs() []Job {
	seen := make(map[string]bool)
	var jobs []Job
	add := func(j Job) {
		if key := j.Key(); !seen[key] {
			seen[key] = true
			jobs = append(jobs, j)
		}
	}
	// "detailed" normalizes to "" so a matrix spelling the default mode
	// explicitly expands to the same cells (and artifact addresses) as one
	// that omits it.
	mode := m.Mode
	if mode == "detailed" {
		mode = ""
	}
	for _, k := range m.Kinds {
		for _, sc := range m.Scales {
			for _, sd := range m.Seeds {
				rc := runcfg.RunConfig{Threads: m.Threads, Scale: sc, Seed: sd, MetricsEpoch: m.MetricsEpoch, Mode: mode}
				for _, b := range m.Benches {
					add(Job{Bench: b, Kind: k, RunConfig: rc})
				}
				for _, ref := range m.Specs {
					add(Job{Bench: ref.Name, Kind: k, RunConfig: rc,
						SpecDigest: ref.Digest, SpecPath: ref.Path})
				}
			}
		}
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Key() < jobs[k].Key() })
	return jobs
}

// Digest identifies the whole matrix: the SHA-256 over the sorted job
// digests. Two matrices expanding to the same cells are the same sweep,
// however their dimension lists were spelled.
func (m Matrix) Digest() string {
	h := sha256.New()
	for _, j := range m.Jobs() {
		h.Write([]byte(j.Digest()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ValidateMatrix rejects matrices no worker could run, before any job is
// registered or the store is touched. spsweep applies it before a local
// run and internal/sweepd at submit, so both refuse the same matrices.
func ValidateMatrix(m Matrix) error {
	if len(m.Benches) == 0 && len(m.Specs) == 0 {
		return errors.New("empty matrix: no benchmarks and no specs")
	}
	for _, b := range m.Benches {
		if _, ok := workload.Builtin().Lookup(b); !ok {
			return fmt.Errorf("workload: unknown benchmark %q", b)
		}
	}
	if len(m.Kinds) == 0 {
		return errors.New("empty matrix: no kinds")
	}
	for _, k := range m.Kinds {
		if !slices.Contains(experiments.Kinds(), k) {
			return fmt.Errorf("unknown kind %q (have: %s)", k, strings.Join(experiments.Kinds(), ","))
		}
	}
	if len(m.Seeds) == 0 {
		return errors.New("empty matrix: no seeds")
	}
	if len(m.Scales) == 0 {
		return errors.New("empty matrix: no scales")
	}
	for _, sc := range m.Scales {
		if sc <= 0 {
			return fmt.Errorf("bad scale %g", sc)
		}
	}
	if _, err := protocol.ConfigFor(m.Threads); err != nil {
		return fmt.Errorf("threads: %w", err)
	}
	switch m.Mode {
	case "", "detailed", "fast":
	default:
		return fmt.Errorf("unknown mode %q (want detailed or fast)", m.Mode)
	}
	return nil
}
