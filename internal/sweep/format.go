package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"spcoh/internal/sim"
	"spcoh/internal/stats"
)

// The renderers in this file produce the *merged output* of a sweep. They
// must stay invariant under worker count, resume state and host speed:
// only job specs and simulation results may appear — never wall times or
// cache provenance (those belong to Summary).

// metricHeader names the per-job metric columns of the table and CSV
// renderings, in order.
var metricHeader = []string{
	"cycles", "misses", "comm%", "missLat", "acc%", "predTgt", "actTgt", "netKB", "energy", "storageBits",
}

// metricsOf extracts the metric row for one result, matching metricHeader.
func metricsOf(r *sim.Result) []float64 {
	n := r.Nodes
	acc, predTgt, actTgt := 0.0, 0.0, 0.0
	if r.Protocol == sim.Directory {
		acc = 100 * n.Accuracy()
		predTgt = n.AvgPredTargets()
		actTgt = n.AvgActualTargets()
	}
	return []float64{
		float64(r.Cycles),
		float64(r.Misses()),
		100 * r.CommRatio(),
		r.AvgMissLatency(),
		acc,
		predTgt,
		actTgt,
		float64(r.Net.Bytes) / 1024,
		r.Energy.Total(),
		float64(r.StorageBits),
	}
}

// FormatTable renders the report as an aligned text table, one row per
// job in key order.
func (r *Report) FormatTable(w io.Writer) {
	t := stats.NewTable("sweep results", append([]string{"job"}, metricHeader...)...)
	for _, jr := range r.Jobs {
		if jr.Err != nil {
			t.AddRow(jr.Job.Key(), "ERROR: "+jr.Err.Error())
			continue
		}
		cells := make([]any, 0, len(metricHeader)+1)
		cells = append(cells, jr.Job.Key())
		for _, v := range metricsOf(jr.Result) {
			cells = append(cells, v)
		}
		t.AddRowf(cells...)
	}
	t.Render(w)
}

// FormatCSV renders the report as CSV, one row per job in key order.
// Floats print in Go's shortest round-trip form, so the bytes are exact
// and reproducible.
func (r *Report) FormatCSV(w io.Writer) error {
	if _, err := fmt.Fprint(w, "job"); err != nil {
		return err
	}
	for _, h := range metricHeader {
		if _, err := fmt.Fprint(w, ","+h); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, jr := range r.Jobs {
		if _, err := fmt.Fprint(w, jr.Job.Key()); err != nil {
			return err
		}
		if jr.Err != nil {
			if _, err := fmt.Fprintf(w, ",ERROR: %s\n", jr.Err); err != nil {
				return err
			}
			continue
		}
		for _, v := range metricsOf(jr.Result) {
			if _, err := fmt.Fprint(w, ","+strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// jsonCell is the FormatJSON record for one job.
type jsonCell struct {
	Key    string      `json:"key"`
	Job    Job         `json:"job"`
	Digest string      `json:"digest"`
	Error  string      `json:"error,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
}

// FormatJSON renders the full merged results: jobs in key order with
// complete result payloads. encoding/json emits map keys sorted, so the
// bytes are deterministic.
func (r *Report) FormatJSON(w io.Writer) error {
	cells := make([]jsonCell, len(r.Jobs))
	for i, jr := range r.Jobs {
		cells[i] = jsonCell{Key: jr.Job.Key(), Job: jr.Job, Digest: jr.Job.Digest(), Result: jr.Result}
		if jr.Err != nil {
			cells[i].Error = jr.Err.Error()
			cells[i].Result = nil
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cells)
}

// Summary is the machine-readable perf record of one sweep invocation:
// wall times and scheduling detail that the merged outputs deliberately
// omit. spsweep writes it to results/BENCH_sweep.json so the repository's
// performance trajectory is trackable across commits.
type Summary struct {
	MatrixDigest string      `json:"matrix_digest"`
	Matrix       Matrix      `json:"matrix"`
	Workers      int         `json:"workers"`
	Jobs         int         `json:"jobs"`
	Executed     int         `json:"executed"`
	Cached       int         `json:"cached"`
	Failed       int         `json:"failed"`
	WallSeconds  float64     `json:"wall_seconds"`
	PerJob       []JobTiming `json:"per_job"`
}

// JobTiming is one job's scheduling record.
type JobTiming struct {
	Key     string  `json:"key"`
	Seconds float64 `json:"seconds"`
	Cached  bool    `json:"cached"`
	Error   string  `json:"error,omitempty"`
}

// Summarize builds the invocation summary for a report.
func (r *Report) Summarize(m Matrix, workers int) *Summary {
	s := &Summary{
		MatrixDigest: m.Digest(),
		Matrix:       m,
		Workers:      workers,
		Jobs:         len(r.Jobs),
		Executed:     r.Executed,
		Cached:       r.Cached,
		Failed:       r.Failed,
		WallSeconds:  r.Wall.Seconds(),
	}
	for _, jr := range r.Jobs {
		t := JobTiming{Key: jr.Job.Key(), Seconds: jr.Wall.Seconds(), Cached: jr.Cached}
		if jr.Err != nil {
			t.Error = jr.Err.Error()
		}
		s.PerJob = append(s.PerJob, t)
	}
	return s
}

// WriteSummary writes the summary JSON to path atomically.
func WriteSummary(path string, s *Summary) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encode summary: %w", err)
	}
	return atomicWrite(path, append(b, '\n'))
}
