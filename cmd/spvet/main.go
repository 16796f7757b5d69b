// Command spvet is the repository's invariant analyzer: a stdlib-only
// static checker that enforces the whole-program invariants the simulator
// depends on — determinism of iteration and arithmetic, enum
// exhaustiveness, allocation-free hot paths, observer purity, and pooled
// record lifetimes (see internal/lint).
//
// Usage:
//
//	go run ./cmd/spvet ./...                              # analyze every non-test package
//	go run ./cmd/spvet ./internal/...                     # a subtree
//	go run ./cmd/spvet -checks                            # list registered checks
//	go run ./cmd/spvet -json ./...                        # machine-readable findings
//
// Findings print as "file:line: [check] message". The exit status is 1 when
// any error-severity finding remains, 2 on analysis errors, 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"spcoh/internal/lint"
)

// jsonFinding is one finding in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Check    string `json:"check"`
	Severity string `json:"severity"`
	Msg      string `json:"msg"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Errors   int           `json:"errors"`
	Warnings int           `json:"warnings"`
}

func main() {
	listChecks := flag.Bool("checks", false, "list registered checks and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	flag.Parse()

	if *listChecks {
		for _, c := range lint.Checks() {
			scope := "all packages"
			if c.SimOnly {
				scope = "simulation packages"
			}
			unit := "per package"
			if c.RunModule != nil {
				unit = "whole module"
			}
			fmt.Printf("%-12s %-5s (%s, %s)\n    %s\n", c.Name, c.Severity, scope, unit, c.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	root, modPath, err := lint.FindModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spvet:", err)
		os.Exit(2)
	}
	// Simulation packages — code the DES drives, which must replay
	// bit-identically — are everything under internal/ except the analyzer
	// itself and the sweep orchestrator (see lint.DefaultIsSim).
	isSim := lint.DefaultIsSim(modPath)
	a := &lint.Analyzer{ModRoot: root, ModPath: modPath, IsSim: isSim}
	findings, err := a.Run(args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spvet:", err)
		os.Exit(2)
	}

	nErrors, nWarns := 0, 0
	for _, f := range findings {
		if f.Severity == lint.SevWarn {
			nWarns++
		} else {
			nErrors++
		}
	}

	if *jsonOut {
		rep := jsonReport{Findings: []jsonFinding{}, Errors: nErrors, Warnings: nWarns}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line,
				Check: f.Check, Severity: string(f.Severity), Msg: f.Msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "spvet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "spvet: %d error(s), %d warning(s)\n", nErrors, nWarns)
	}
	if nErrors > 0 {
		os.Exit(1)
	}
}
