package experiments

import (
	"fmt"

	"spcoh/internal/arch"
	"spcoh/internal/charac"
	"spcoh/internal/stats"
	"spcoh/internal/workload"
)

// Table1 reproduces the paper's Table 1: per-benchmark sync-epoch
// statistics, side by side with the paper's reference values (our dynamic
// counts are smaller because the synthetic programs run scaled-down
// iteration counts; the *structure* — static sync-point populations — is
// matched).
func Table1(r *Runner) (*stats.Table, error) {
	t := stats.NewTable("Table 1: sync-epoch statistics (per-core average)",
		"benchmark", "staticCS", "staticCS(paper)", "staticEpochs", "staticEpochs(paper)",
		"dynEpochs/core", "dynEpochs(paper)", "input(paper)")
	for _, prof := range workload.Builtin().Profiles() {
		a, err := r.Analysis(prof.Name)
		if err != nil {
			return nil, err
		}
		cs, se, dyn := a.EpochStats()
		t.AddRowf(prof.Name, cs, prof.Paper.StaticCS, se, prof.Paper.StaticEpochs,
			dyn, prof.Paper.DynEpochs, prof.Paper.Input)
	}
	t.AddNote("dynamic counts scale with -scale; paper columns are the published Table 1")
	return t, nil
}

// Fig1 reproduces Figure 1: the ratio of communicating to
// non-communicating misses per benchmark.
func Fig1(r *Runner) (*stats.Table, error) {
	t := stats.NewTable("Figure 1: ratio of communicating misses",
		"benchmark", "communicating", "non-communicating", "misses")
	var ratios []float64
	for _, name := range workload.Builtin().Names() {
		res, err := r.Run(name, "dir")
		if err != nil {
			return nil, err
		}
		c := res.CommRatio()
		ratios = append(ratios, c)
		t.AddRowf(name, c, 1-c, res.Misses())
	}
	t.AddRowf("average", stats.ArithMean(ratios), 1-stats.ArithMean(ratios), "")
	t.AddNote("paper: communicating misses account for 62%% on average, with large variation")
	return t, nil
}

// Fig2 reproduces Figure 2: the communication distribution of core 0 in
// bodytrack at three granularities: (a) whole execution, (b) four
// consecutive sync-epochs, (c) five dynamic instances of one sync-epoch.
func Fig2(r *Runner) (*stats.Table, error) {
	a, err := r.Analysis("bodytrack")
	if err != nil {
		return nil, err
	}
	n := r.Cfg.Threads
	t := stats.NewTable("Figure 2: communication distribution of core 0 in bodytrack",
		append([]string{"interval"}, coreHeaders(n)...)...)

	rowFor := func(label string, d stats.Distribution) {
		cells := make([]any, 0, n+1)
		cells = append(cells, label)
		for _, v := range d {
			cells = append(cells, v)
		}
		t.AddRowf(cells...)
	}
	rowFor("(a) whole execution", a.WholeDist[0])

	eps := a.EpochsOf(0)
	// (b) four consecutive communicating epochs mid-run.
	count := 0
	for _, e := range eps {
		if e.Dist.Total() == 0 || e.Instance < 2 {
			continue
		}
		rowFor(fmt.Sprintf("(b) epoch %d#%d", e.StaticID, e.Instance), e.Dist)
		count++
		if count == 4 {
			break
		}
	}
	// (c) five dynamic instances of the busiest *focused* static epoch
	// (hot set <= 4, as in the paper's example).
	best, bestVol := uint64(0), uint64(0)
	for _, id := range a.StaticEpochIDs() {
		var vol uint64
		focused := true
		for _, e := range a.InstancesOf(0, id) {
			vol += e.Dist.Total()
			if e.Dist.Total() > 0 && e.HotSet(0.10).Count() > 4 {
				focused = false
			}
		}
		if focused && vol > bestVol {
			best, bestVol = id, vol
		}
	}
	for i, e := range a.InstancesOf(0, best) {
		if i >= 5 {
			break
		}
		rowFor(fmt.Sprintf("(c) epoch %d inst %d", best, e.Instance), e.Dist)
	}
	t.AddNote("paper: sharp changes at interval boundaries; few hot targets per epoch")
	return t, nil
}

// Fig4 reproduces Figure 4: average cumulative communication locality of
// bodytrack, fmm and water-ns at sync-epoch, whole-interval and static-
// instruction granularity.
func Fig4(r *Runner) (*stats.Table, error) {
	t := stats.NewTable("Figure 4: communication locality (cumulative % volume vs #cores)",
		append([]string{"benchmark", "granularity"}, coreHeaders(r.Cfg.Threads)...)...)
	for _, name := range []string{"bodytrack", "fmm", "water-ns"} {
		a, err := r.Analysis(name)
		if err != nil {
			return nil, err
		}
		for _, g := range []struct {
			label string
			cov   []float64
		}{
			{"sync-epoch", a.CoverageByEpoch()},
			{"single-interval", a.CoverageWhole()},
			{"static instruction", a.CoverageByPC()},
		} {
			cells := []any{name, g.label}
			for _, c := range g.cov {
				cells = append(cells, 100*c)
			}
			t.AddRowf(cells...)
		}
	}
	t.AddNote("paper: sync-epoch curves dominate whole-interval and instruction granularity")
	return t, nil
}

// Fig5 reproduces Figure 5: the distribution of sync-epochs by hot
// communication set size (10%% threshold).
func Fig5(r *Runner) (*stats.Table, error) {
	t := stats.NewTable("Figure 5: epochs by hot communication set size (10% threshold)",
		"benchmark", "size=1", "size=2", "size=3", "size=4", "size>=5")
	var small stats.Mean
	for _, name := range workload.Builtin().Names() {
		a, err := r.Analysis(name)
		if err != nil {
			return nil, err
		}
		h := a.HotSetSizes(0.10)
		t.AddRowf(name, h.Fraction(1), h.Fraction(2), h.Fraction(3), h.Fraction(4), h.FractionAtLeast(5))
		small.Add(1 - h.FractionAtLeast(5))
	}
	t.AddNote("fraction of epochs with hot set <= 4: %.0f%% (paper: more than 78%%)", 100*small.Value())
	return t, nil
}

// Fig6 reproduces Figure 6: example hot-set patterns across dynamic
// instances of a sync-epoch, and a per-benchmark classification summary.
func Fig6(r *Runner) (*stats.Table, error) {
	n := r.Cfg.Threads
	t := stats.NewTable("Figure 6: hot communication set patterns across dynamic instances",
		"benchmark", "epoch", "instances (bit vectors, node 0 left)", "class", "stride")

	// Example pattern plots from structurally distinct benchmarks.
	for _, name := range []string{"facesim", "ocean", "radiosity", "fmm"} {
		a, err := r.Analysis(name)
		if err != nil {
			return nil, err
		}
		shown := 0
		for _, id := range a.StaticEpochIDs() {
			insts := a.InstancesOf(0, id)
			if len(insts) < 5 {
				continue
			}
			var sets []arch.SharerSet
			for _, e := range insts {
				sets = append(sets, e.HotSet(0.10))
			}
			class, stride := charac.ClassifyPattern(sets)
			if class == charac.PatternEmpty {
				continue
			}
			vecs := ""
			for i, s := range sets {
				if i >= 5 {
					break
				}
				if i > 0 {
					vecs += " "
				}
				vecs += s.BitString(n)
			}
			t.AddRowf(name, id, vecs, class.String(), stride)
			shown++
			if shown >= 2 {
				break
			}
		}
	}

	// Classification summary over every benchmark's static epochs.
	for _, name := range workload.Builtin().Names() {
		a, err := r.Analysis(name)
		if err != nil {
			return nil, err
		}
		counts := map[charac.PatternClass]int{}
		for node := arch.NodeID(0); int(node) < n; node++ {
			for _, id := range a.StaticEpochIDs() {
				insts := a.InstancesOf(node, id)
				if len(insts) < 3 {
					continue
				}
				var sets []arch.SharerSet
				for _, e := range insts {
					sets = append(sets, e.HotSet(0.10))
				}
				class, _ := charac.ClassifyPattern(sets)
				counts[class]++
			}
		}
		t.AddRowf(name, "summary",
			fmt.Sprintf("stable=%d repetitive=%d mixed=%d random=%d",
				counts[charac.PatternStable], counts[charac.PatternStride],
				counts[charac.PatternMixed], counts[charac.PatternRandom]),
			"", "")
	}
	return t, nil
}

func coreHeaders(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("c%d", i)
	}
	return out
}
