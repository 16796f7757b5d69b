// Package runcfg holds the one run-sizing configuration shared by every
// layer that names a simulation cell: the experiments runner, the sweep
// matrix, the public API and the CLIs. The one struct flows through
// unconverted until experiments.SimOptions turns it, together with a
// configuration name, into sim.Options (whose MetricsEpoch is an
// event.Time, not a uint64).
//
// The JSON field names and order are load-bearing: sweep.Job embeds
// RunConfig and hashes its canonical JSON as the artifact address, so
// renaming or reordering fields would orphan every previously-recorded
// sweep artifact. Append new fields with omitempty; never reorder.
package runcfg

// RunConfig sizes one simulation run.
type RunConfig struct {
	// Threads is the workload thread count (= the machine's node count).
	Threads int `json:"threads"`
	// Scale multiplies each workload's base iteration count.
	Scale float64 `json:"scale"`
	// Seed is the workload build seed.
	Seed int64 `json:"seed"`

	// MetricsEpoch, when non-zero, enables the run-time metrics collector
	// with this sampling epoch (cycles); the sim.Result then carries a
	// phase-resolved time-series. omitempty keeps canonical encodings of
	// metrics-free configs identical to pre-metrics recordings.
	MetricsEpoch uint64 `json:"metrics_epoch,omitempty"`

	// Mode selects the simulation fidelity: "" or "detailed" for the
	// cycle-level model, "fast" for the fast functional model (DESIGN.md
	// §15). omitempty keeps canonical encodings of detailed configs — and
	// therefore every previously-recorded sweep artifact address —
	// unchanged; only fast cells encode the field.
	Mode string `json:"mode,omitempty"`
}

// FastMode reports whether the configuration selects the fast functional
// model.
func (c RunConfig) FastMode() bool { return c.Mode == "fast" }
