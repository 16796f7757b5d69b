// Quickstart: run one benchmark under the baseline directory protocol and
// under SP-prediction, and print the headline comparison the paper makes
// (miss latency, execution time, prediction accuracy, bandwidth cost).
package main

import (
	"fmt"
	"log"
	"sort"

	"spcoh"
)

func main() {
	const bench = "ocean"

	base, err := spcoh.RunBenchmark(bench, spcoh.Options{Predictor: spcoh.Directory, Scale: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	sp, err := spcoh.RunBenchmark(bench, spcoh.Options{Predictor: spcoh.SP, Scale: 0.5})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark: %s (16-core CMP, MESIF directory)\n\n", bench)
	fmt.Printf("%-28s %12s %12s\n", "", "directory", "SP-predictor")
	fmt.Printf("%-28s %12d %12d\n", "execution cycles", base.Cycles, sp.Cycles)
	fmt.Printf("%-28s %12.1f %12.1f\n", "avg miss latency (cycles)", base.AvgMissLatency, sp.AvgMissLatency)
	fmt.Printf("%-28s %12.0f%% %11.0f%%\n", "communicating misses", 100*base.CommRatio, 100*sp.CommRatio)
	fmt.Printf("%-28s %12s %11.0f%%\n", "prediction accuracy", "-", 100*sp.PredictionAccuracy)
	fmt.Printf("%-28s %12d %12d\n", "interconnect KB", base.NetworkBytes/1024, sp.NetworkBytes/1024)
	fmt.Printf("%-28s %12d %12d\n", "predictor storage (bits)", base.StorageBits, sp.StorageBits)

	fmt.Printf("\nmiss latency reduced by %.1f%%, execution time by %.1f%%\n",
		100*(1-sp.AvgMissLatency/base.AvgMissLatency),
		100*(1-float64(sp.Cycles)/float64(base.Cycles)))
	fmt.Println("\naccuracy by information source (fraction of communicating misses):")
	srcs := make([]string, 0, len(sp.AccuracyBySource))
	for src := range sp.AccuracyBySource { //spvet:allow maprange,floatorder -- sorted below
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		fmt.Printf("  %-10s %5.1f%%\n", src, 100*sp.AccuracyBySource[src])
	}
}
