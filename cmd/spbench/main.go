// Command spbench regenerates the paper's tables and figures.
//
// Usage:
//
//	spbench                     # every experiment, full scale
//	spbench -only fig8,fig9     # a subset
//	spbench -quick              # reduced workload scale
//	spbench -parallel -jobs 4   # experiments concurrently, shared cache
//	spbench -format json        # machine-readable rows + wall times
//	spbench -cpuprofile cpu.pprof -only fig8
//
// The simulator's own speed is measured by perfbench/ and gated by
// scripts/abbench.sh (see DESIGN.md §11).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"spcoh/internal/experiments"
	"spcoh/internal/stats"
)

// outcome is one experiment's generated table (or failure) plus wall time.
type outcome struct {
	tab  *stats.Table
	err  error
	secs float64
}

// jsonExperiment is the -format json record for one experiment.
type jsonExperiment struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Seconds float64    `json:"seconds"`
	Header  []string   `json:"header,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Notes   []string   `json:"notes,omitempty"`
	Error   string     `json:"error,omitempty"`
}

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit status so that the deferred
// profile writes happen on failing exits too.
func run() int {
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	quick := flag.Bool("quick", false, "reduced workload scale")
	scale := flag.Float64("scale", 0, "explicit workload scale (overrides -quick)")
	seed := flag.Int64("seed", 42, "workload build seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Bool("parallel", false, "generate experiments concurrently over the shared result cache")
	jobs := flag.Int("jobs", runtime.NumCPU(), "worker count for -parallel")
	format := flag.String("format", "text", "output format: text|json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write an allocation profile here on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "spbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "spbench:", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "spbench: unknown format %q (text|json)\n", *format)
		return 1
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	cfg.Seed = *seed
	r := experiments.NewRunner(cfg)

	selected := experiments.All()
	if *only != "" {
		selected = nil
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			selected = append(selected, e)
		}
	}

	outs := generate(r, selected, *parallel, *jobs)

	failed := 0
	switch *format {
	case "json":
		recs := make([]jsonExperiment, len(selected))
		for i, e := range selected {
			recs[i] = jsonExperiment{ID: e.ID, Title: e.Title, Seconds: outs[i].secs}
			if outs[i].err != nil {
				recs[i].Error = outs[i].err.Error()
				failed++
				continue
			}
			recs[i].Header = outs[i].tab.Header
			recs[i].Rows = outs[i].tab.Rows
			recs[i].Notes = outs[i].tab.Notes
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			fmt.Fprintln(os.Stderr, "spbench:", err)
			return 1
		}
	default:
		for i, e := range selected {
			if outs[i].err != nil {
				fmt.Fprintf(os.Stderr, "spbench: %s: %v\n", e.ID, outs[i].err)
				failed++
				continue
			}
			outs[i].tab.AddNote("generated in %.1fs at scale %.2f", outs[i].secs, cfg.Scale)
			outs[i].tab.Render(os.Stdout)
			fmt.Println()
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "spbench: %d/%d experiments failed\n", failed, len(selected))
		return 1
	}
	return 0
}

// generate runs the selected experiments, sequentially or on a bounded
// worker pool. Output order is experiment order either way: workers write
// into their own slot, so completion order never shows.
func generate(r *experiments.Runner, selected []experiments.Experiment, parallel bool, jobs int) []outcome {
	outs := make([]outcome, len(selected))
	runOne := func(i int) {
		start := time.Now()
		tab, err := selected[i].Run(r)
		outs[i] = outcome{tab: tab, err: err, secs: time.Since(start).Seconds()}
	}
	if !parallel {
		for i := range selected {
			runOne(i)
		}
		return outs
	}
	if jobs < 1 {
		jobs = 1
	}
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := range selected {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runOne(i)
		}(i)
	}
	wg.Wait()
	return outs
}
