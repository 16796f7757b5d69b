package main

// Server-mode subcommands: everything spsweep does against a spsweepd
// daemon instead of the local engine. The merged results a server
// returns are byte-identical to a local run of the same matrix (see
// internal/sweepd), so scripts can switch between the two freely.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"spcoh/internal/sweep"
	"spcoh/internal/sweepd"
)

// serverTokenFlag registers the shared -token flag: the bearer token sent
// with every request to a spsweepd daemon started with -token.
func serverTokenFlag(fs *flag.FlagSet) *string {
	return fs.String("token", os.Getenv("SPSWEEPD_TOKEN"),
		"bearer token for the spsweepd server (default $SPSWEEPD_TOKEN)")
}

// serverClient builds a client carrying the token (when set).
func serverClient(server, token string) *sweepd.Client {
	c := sweepd.NewClient(server)
	if token != "" {
		c.SetToken(token)
	}
	return c
}

// submitMatrix uploads the matrix and its spec files to the server.
func submitMatrix(c *sweepd.Client, matrix sweep.Matrix) (*sweepd.SubmitResponse, error) {
	req := &sweepd.SubmitRequest{Matrix: matrix}
	for _, ref := range matrix.Specs {
		b, err := os.ReadFile(ref.Path)
		if err != nil {
			return nil, fmt.Errorf("spec %s: %w", ref.Path, err)
		}
		req.Specs = append(req.Specs, sweepd.SpecUpload{Name: ref.Name, Digest: ref.Digest, Content: b})
	}
	return c.Submit(req)
}

// serverRun submits the matrix, follows the status stream until the
// sweep is terminal (reconnecting through server restarts), then writes
// the merged results to stdout. Exit status mirrors a local run: an
// error is returned when any cell failed.
func serverRun(ctx context.Context, server, token string, matrix sweep.Matrix, format string) error {
	c := serverClient(server, token)
	sub, err := submitMatrix(c, matrix)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spsweep: sweep %.12s submitted to %s: %d jobs (%d done, %d failed so far)\n",
		sub.SweepID, server, sub.Counts.Jobs, sub.Counts.Done, sub.Counts.Failed)

	done := 0
	var final *sweepd.Counts
	for final == nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted; the server keeps running the sweep — 'spsweep results -server %s -sweep %s' when it finishes", server, sub.SweepID)
		}
		err := c.StreamEvents(sub.SweepID, func(ev sweepd.Event) bool {
			switch ev.Type {
			case "job":
				done++
				state := ev.Job.State
				if ev.Job.Cached {
					state = "cached"
				}
				if ev.Job.Error != "" {
					state += ": " + ev.Job.Error
				}
				fmt.Fprintf(os.Stderr, "spsweep: [%d/%d] %-40s %6.1fs  %s\n",
					done, sub.Counts.Jobs, ev.Job.Key, ev.Job.Seconds, state)
			case "complete":
				final = ev.Counts
			}
			return ctx.Err() == nil
		})
		if err != nil && final == nil {
			// Stream dropped (server restart, network blip). The replayed
			// stream dedups nothing client-side, so reset the counter.
			fmt.Fprintf(os.Stderr, "spsweep: stream lost (%v); reconnecting\n", err)
			done = 0
			select {
			case <-ctx.Done():
			case <-time.After(2 * time.Second):
			}
		}
	}

	if err := c.Results(sub.SweepID, format, os.Stdout); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spsweep: %d jobs: %d cached, %d done, %d failed\n",
		final.Jobs, final.Cached, final.Done, final.Failed)
	if final.Failed > 0 {
		return fmt.Errorf("%d job(s) failed", final.Failed)
	}
	return nil
}

// serverStatus prints the server's sweeps (or one sweep's jobs) and
// returns an error when any job has terminally failed, mirroring the
// local status exit-code contract.
func serverStatus(server, token, sweepID string, verbose bool) error {
	c := serverClient(server, token)
	failed := 0
	if sweepID == "" {
		list, err := c.List()
		if err != nil {
			return err
		}
		if len(list.Sweeps) == 0 {
			fmt.Println("no sweeps submitted")
			return nil
		}
		for _, s := range list.Sweeps {
			fmt.Printf("sweep %.12s: %d jobs, %d pending, %d leased, %d done (%d cached), %d failed\n",
				s.SweepID, s.Counts.Jobs, s.Counts.Pending, s.Counts.Leased, s.Counts.Done, s.Counts.Cached, s.Counts.Failed)
			failed += s.Counts.Failed
		}
	} else {
		st, err := c.Status(sweepID)
		if err != nil {
			return err
		}
		fmt.Printf("sweep %.12s: %d jobs, %d pending, %d leased, %d done (%d cached), %d failed\n",
			st.SweepID, st.Counts.Jobs, st.Counts.Pending, st.Counts.Leased, st.Counts.Done, st.Counts.Cached, st.Counts.Failed)
		for _, j := range st.Jobs {
			if !verbose && j.State == "done" {
				continue
			}
			line := fmt.Sprintf("  %-48s %s", j.Key, j.State)
			if j.Worker != "" {
				line += " worker=" + j.Worker
			}
			if j.Attempts > 0 {
				line += fmt.Sprintf(" attempts=%d", j.Attempts)
			}
			if j.Error != "" {
				line += " error=" + j.Error
			}
			fmt.Println(line)
		}
		failed = st.Counts.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d job(s) failed", failed)
	}
	return nil
}

// cmdWork is the remote worker: lease, execute, push, repeat. It is the
// same loop the daemon's in-process pool runs (sweepd.RunWorker); only
// the transport differs.
func cmdWork(args []string) error {
	fs := newFlagSet("spsweep work")
	server := fs.String("server", "", "spsweepd base URL (required)")
	jobs := fs.Int("jobs", 1, "concurrent leases (worker slots)")
	poll := fs.Duration("poll", 2*time.Second, "idle wait between lease attempts")
	timeout := fs.Duration("timeout", 0, "per-attempt wall-clock timeout (0 = none)")
	drain := fs.Bool("drain", false, "exit once the server reports no work left")
	id := fs.String("id", "", "worker identity shown in attempt histories (default host/pid)")
	token := serverTokenFlag(fs)
	fs.Parse(args)
	if *server == "" {
		return fmt.Errorf("work: -server is required")
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s.%d", host, os.Getpid())
	}

	c := serverClient(*server, *token)
	if err := c.Healthz(); err != nil {
		return fmt.Errorf("work: server %s unreachable: %w", *server, err)
	}
	fmt.Fprintf(os.Stderr, "spsweep: worker %s serving %s (%d slots)\n", *id, *server, *jobs)

	ctx, stop := signalContext()
	defer stop()
	sweepd.RunWorker(ctx, c, sweepd.WorkerOptions{
		ID:      *id,
		Slots:   *jobs,
		Poll:    *poll,
		Timeout: *timeout,
		Drain:   *drain,
		Log: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "spsweep: "+format+"\n", a...)
		},
	})
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "spsweep: worker stopped")
	}
	return nil
}

// cmdResults fetches a finished sweep's merged results from a server.
func cmdResults(args []string) error {
	fs := newFlagSet("spsweep results")
	server := fs.String("server", "", "spsweepd base URL (required)")
	sweepID := fs.String("sweep", "", "sweep ID (defaults to the server's only sweep)")
	format := fs.String("format", "table", "output format: table|csv|json")
	token := serverTokenFlag(fs)
	fs.Parse(args)
	if *server == "" {
		return fmt.Errorf("results: -server is required")
	}
	c := serverClient(*server, *token)
	id := *sweepID
	if id == "" {
		list, err := c.List()
		if err != nil {
			return err
		}
		switch len(list.Sweeps) {
		case 0:
			return fmt.Errorf("results: server has no sweeps")
		case 1:
			id = list.Sweeps[0].SweepID
		default:
			return fmt.Errorf("results: server has %d sweeps; pick one with -sweep (see 'spsweep status -server %s')",
				len(list.Sweeps), *server)
		}
	}
	if err := c.Results(id, *format, os.Stdout); err != nil {
		return err
	}
	st, err := c.Status(id)
	if err != nil {
		return err
	}
	if st.Counts.Failed > 0 {
		return fmt.Errorf("%d job(s) failed", st.Counts.Failed)
	}
	return nil
}
