// Command spchar runs the paper's §3 characterization for one benchmark:
// it executes a baseline-directory run with trace capture and prints the
// sync-epoch statistics, communication locality and hot-set patterns. With
// -o it also writes the raw trace for later inspection with sptrace.
package main

import (
	"flag"
	"fmt"
	"os"

	"spcoh/internal/arch"
	"spcoh/internal/charac"
	"spcoh/internal/sim"
	"spcoh/internal/stats"
	"spcoh/internal/trace"
	"spcoh/internal/workload"
)

func main() {
	bench := flag.String("bench", "bodytrack", "benchmark name")
	scale := flag.Float64("scale", 1.0, "workload scale")
	seed := flag.Int64("seed", 42, "workload build seed")
	out := flag.String("o", "", "write the raw trace to this file")
	node := flag.Int("node", 0, "node whose distributions to print")
	flag.Parse()

	prof, ok := workload.Builtin().Lookup(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "spchar: unknown benchmark %q\n", *bench)
		os.Exit(1)
	}
	prog, err := prof.Program(16, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spchar:", err)
		os.Exit(1)
	}

	col := &trace.Collector{}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		col.W = trace.NewWriter(f)
		defer col.W.Flush()
	}
	opt := sim.DefaultOptions()
	opt.Tracer = col
	if _, err := sim.Run(prog, opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if col.Err() != nil {
		fmt.Fprintln(os.Stderr, col.Err())
		os.Exit(1)
	}

	a := charac.Analyze(col.Events, 16)
	cs, se, dyn := a.EpochStats()

	t := stats.NewTable(fmt.Sprintf("%s characterization", *bench), "metric", "value")
	t.AddRowf("trace events", len(col.Events))
	t.AddRowf("L2 misses", a.TotalMisses)
	t.AddRowf("communicating ratio", a.CommRatio())
	t.AddRowf("static critical sections", cs)
	t.AddRowf("static sync-epochs", se)
	t.AddRowf("dynamic epochs/core", dyn)
	t.Render(os.Stdout)
	fmt.Println()

	cov := stats.NewTable("communication locality (cumulative % volume)",
		"granularity", "1 core", "2 cores", "4 cores", "8 cores")
	for _, g := range []struct {
		label string
		c     []float64
	}{
		{"sync-epoch", a.CoverageByEpoch()},
		{"single-interval", a.CoverageWhole()},
		{"static instruction", a.CoverageByPC()},
	} {
		cov.AddRowf(g.label, 100*g.c[0], 100*g.c[1], 100*g.c[3], 100*g.c[7])
	}
	cov.Render(os.Stdout)
	fmt.Println()

	h := a.HotSetSizes(0.10)
	hs := stats.NewTable("hot communication set sizes (10% threshold)",
		"size=1", "size=2", "size=3", "size=4", ">=5")
	hs.AddRowf(h.Fraction(1), h.Fraction(2), h.Fraction(3), h.Fraction(4), h.FractionAtLeast(5))
	hs.Render(os.Stdout)
	fmt.Println()

	pat := stats.NewTable(fmt.Sprintf("hot-set patterns at node %d", *node),
		"static epoch", "instances", "class", "stride")
	for _, id := range a.StaticEpochIDs() {
		insts := a.InstancesOf(arch.NodeID(*node), id)
		if len(insts) < 3 {
			continue
		}
		var raw []arch.SharerSet
		for _, e := range insts {
			raw = append(raw, e.HotSet(0.10))
		}
		class, stride := charac.ClassifyPattern(raw)
		pat.AddRowf(id, len(insts), class.String(), stride)
	}
	pat.Render(os.Stdout)
}
