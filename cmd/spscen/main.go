// Command spscen works with declarative scenario specs (internal/scenario):
// it generates random-but-valid specs from a seed, validates spec files,
// summarizes them, and smoke-tests the generator across a seed range.
//
// Usage:
//
//	spscen gen      [-seed 42] [-phases 4] [-iters 6] [-accesses 8] [-o spec.json]
//	spscen validate [-threads 16] file.json...       # or -builtin for the embedded set
//	spscen show     [file.json...]                   # summary table; no args = builtin
//	spscen fuzz     [-n 50] [-seed 1] [-threads 8] [-scale 0.25]
//
// gen writes the canonical JSON of one generated spec, so
// `spscen gen -seed N | spsim -spec -` is fully deterministic in N.
// fuzz generates n consecutive seeds and proves each spec validates,
// regenerates byte-identically, and builds an op stream at the given
// thread count — the repository's check.sh gate over the generator.
package main

import (
	"flag"
	"fmt"
	"os"

	"spcoh/internal/scenario"
	"spcoh/internal/stats"
	"spcoh/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "fuzz":
		err = cmdFuzz(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "spscen: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spscen:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spscen <gen|validate|show|fuzz> [flags]

  gen       generate one scenario spec from a seed (canonical JSON to stdout)
  validate  validate spec files (-builtin: the embedded profile specs)
  show      summarize specs (no args: the embedded profile specs)
  fuzz      generate a seed range; prove validity, determinism and buildability

Run 'spscen <subcommand> -h' for flags.`)
}

func genOptFlags(fs *flag.FlagSet) *scenario.GenOptions {
	o := &scenario.GenOptions{}
	fs.IntVar(&o.MaxPhases, "phases", 0, "max pattern phases (0 = default)")
	fs.IntVar(&o.MaxIters, "iters", 0, "max base iterations (0 = default)")
	fs.IntVar(&o.MaxAccesses, "accesses", 0, "max per-step access count (0 = default)")
	return o
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "generator seed (the spec is a pure function of it)")
	out := fs.String("o", "-", `output file ("-" = stdout)`)
	opt := genOptFlags(fs)
	fs.Parse(args)

	s := scenario.Generate(*seed, *opt)
	b, err := s.Canonical()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(*out, b, 0o644)
}

// load reads either the named files or, with builtin, every embedded
// profile spec.
func load(builtin bool, paths []string) ([]*scenario.Spec, error) {
	if builtin {
		var specs []*scenario.Spec
		for _, p := range workload.Builtin().Profiles() {
			specs = append(specs, p.Spec)
		}
		return specs, nil
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no spec files given (or use -builtin)")
	}
	var specs []*scenario.Spec
	for _, path := range paths {
		s, err := scenario.Load(path)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	builtin := fs.Bool("builtin", false, "validate the embedded profile specs")
	threads := fs.Int("threads", 16, "also prove each spec builds at this thread count")
	fs.Parse(args)

	specs, err := load(*builtin, fs.Args())
	if err != nil {
		return err
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return err
		}
		if _, err := workload.FromSpec(s, *threads, 0.25, 1); err != nil {
			return fmt.Errorf("spec %q: builds failed: %w", s.Name, err)
		}
	}
	fmt.Printf("spscen: %d specs valid (build checked at %d threads)\n", len(specs), *threads)
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	fs.Parse(args)

	specs, err := load(len(fs.Args()) == 0, fs.Args())
	if err != nil {
		return err
	}
	t := stats.NewTable("scenario specs",
		"name", "suite", "barriers", "locks", "iters", "steps", "digest")
	for _, s := range specs {
		t.AddRowf(s.Name, s.Suite, s.Barriers, s.Locks, s.Iters, len(s.Steps), s.Digest()[:12])
	}
	t.Render(os.Stdout)
	return nil
}

func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	n := fs.Int("n", 50, "number of consecutive seeds to test")
	seed := fs.Int64("seed", 1, "first seed")
	threads := fs.Int("threads", 8, "thread count for the build check")
	scale := fs.Float64("scale", 0.25, "workload scale for the build check")
	opt := genOptFlags(fs)
	fs.Parse(args)

	var ops int
	for i := 0; i < *n; i++ {
		sd := *seed + int64(i)
		s := scenario.Generate(sd, *opt)
		if err := s.Validate(); err != nil {
			return fmt.Errorf("seed %d: generated spec invalid: %w", sd, err)
		}
		if again := scenario.Generate(sd, *opt); again.Digest() != s.Digest() {
			return fmt.Errorf("seed %d: generator is not deterministic", sd)
		}
		prog, err := workload.FromSpec(s, *threads, *scale, sd)
		if err != nil {
			return fmt.Errorf("seed %d: spec %q does not build: %w", sd, s.Name, err)
		}
		ops += prog.TotalOps()
	}
	fmt.Printf("spscen: fuzzed seeds %d..%d: all valid, deterministic and buildable (%d ops total)\n",
		*seed, *seed+int64(*n)-1, ops)
	return nil
}
