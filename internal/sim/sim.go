// Package sim assembles the full CMP: cores executing a workload program
// over either the prediction-capable directory protocol or the broadcast
// snooping protocol, and collects the measurements the paper's evaluation
// reports.
package sim

import (
	"fmt"

	"spcoh/internal/cpu"
	"spcoh/internal/energy"
	"spcoh/internal/event"
	"spcoh/internal/metrics"
	"spcoh/internal/noc"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
	"spcoh/internal/snoop"
	"spcoh/internal/trace"
	"spcoh/internal/workload"
)

// ProtocolKind selects the coherence substrate.
type ProtocolKind int

const (
	// Directory is the baseline MESIF directory protocol, optionally
	// extended with destination-set prediction.
	Directory ProtocolKind = iota
	// Broadcast is the snooping comparison protocol.
	Broadcast
)

// Mode selects the simulation fidelity (DESIGN.md §15). No command
// selects ModeFast: it stays only for the perfbench sweep-fast-server
// workload.
type Mode string

const (
	// ModeDetailed is the cycle-level model: full NoC contention, link
	// arbitration, and per-message event scheduling. The empty string is
	// accepted as an alias everywhere a Mode is consumed.
	ModeDetailed Mode = "detailed"
	// ModeFast is the fast functional model: the same protocol, predictor
	// and cache state machines (all count statistics stay exact), with NoC
	// contention and arbitration replaced by fixed per-hop latencies —
	// timing is approximate, typically optimistic.
	ModeFast Mode = "fast"
)

// ParseMode validates a mode string ("" = detailed).
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeDetailed:
		return ModeDetailed, nil
	case ModeFast:
		return ModeFast, nil
	}
	return "", fmt.Errorf("sim: unknown mode %q (want detailed or fast)", s)
}

// Options configures one simulation run.
type Options struct {
	Machine  protocol.Config
	Protocol ProtocolKind

	// Mode selects detailed (default, also the zero value) or fast
	// simulation.
	Mode Mode

	// Predictors, one per node (directory protocol only). Nil = baseline.
	Predictors []predictor.Predictor

	// Tracer, when set, records every L2 miss outcome and sync-point
	// (directory protocol only, and not with MetricsEpoch: a run carries
	// one observer). Used by the characterization pipeline.
	Tracer *trace.Collector

	// MetricsEpoch, when non-zero, attaches the run-time metrics collector
	// sampling the whole system every MetricsEpoch cycles; the resulting
	// time-series lands in Result.Metrics. Zero (the default) collects
	// nothing and adds no instrumentation beyond nil checks.
	MetricsEpoch event.Time

	// Shards is ignored; every run uses the serial engine.
	Shards int
}

// DefaultOptions returns the paper's machine with the baseline directory
// protocol.
func DefaultOptions() Options {
	return Options{
		Machine:  protocol.DefaultConfig(),
		Protocol: Directory,
	}
}

// Result carries the measurements of one run.
type Result struct {
	Benchmark string
	Protocol  ProtocolKind
	Predictor string

	// Mode records the simulation fidelity the run used; empty (legacy
	// results) means detailed, keeping existing serialized artifacts and
	// their digests unchanged.
	Mode Mode `json:"Mode,omitempty"`

	Cycles event.Time // execution time (all cores finished)
	Events uint64     // discrete events fired by the engine (throughput accounting)

	// Directory-protocol statistics (zero for Broadcast runs).
	Nodes protocol.NodeStats

	// Broadcast statistics (zero for Directory runs).
	Snoop snoop.Stats

	Net    noc.Stats
	Energy energy.Breakdown

	// StorageBits is the predictors' total table storage at end of run
	// (post-run occupancy for unbounded tables; configured capacity for
	// bounded ones). Zero without prediction.
	StorageBits int

	// Metrics is the epoch time-series collected when Options.MetricsEpoch
	// is non-zero; nil otherwise. It stays a pointer so the zero-config
	// Result snapshot (and its %+v rendering) is unchanged.
	Metrics *metrics.Series `json:"Metrics,omitempty"`
}

// Misses returns the total L2 miss count.
func (r *Result) Misses() uint64 {
	if r.Protocol == Broadcast {
		return r.Snoop.Misses
	}
	return r.Nodes.Misses
}

// AvgMissLatency returns the mean CPU-visible miss latency in cycles.
func (r *Result) AvgMissLatency() float64 {
	if r.Protocol == Broadcast {
		return r.Snoop.AvgMissLatency()
	}
	return r.Nodes.AvgMissLatency()
}

// CommRatio returns the fraction of misses that are communicating.
func (r *Result) CommRatio() float64 {
	var c, t uint64
	if r.Protocol == Broadcast {
		c, t = r.Snoop.Communicating, r.Snoop.Misses
	} else {
		c, t = r.Nodes.Communicating, r.Nodes.Misses
	}
	if t == 0 {
		return 0
	}
	return float64(c) / float64(t)
}

// Both protocols' nodes serve the fast-mode hit path (cpu.Core.EnableFast).
var (
	_ cpu.FastPort = (*protocol.Node)(nil)
	_ cpu.FastPort = (*snoop.Node)(nil)
)

// Run executes a program to completion and returns measurements. It errors
// on deadlock (cores unfinished with an empty event queue).
func Run(prog *workload.Program, opt Options) (*Result, error) {
	n := prog.NumThreads()
	if n != opt.Machine.Nodes {
		return nil, fmt.Errorf("sim: %d threads but %d nodes", n, opt.Machine.Nodes)
	}

	mode, err := ParseMode(string(opt.Mode))
	if err != nil {
		return nil, err
	}
	fast := mode == ModeFast

	if opt.Tracer != nil && opt.Protocol != Directory {
		return nil, fmt.Errorf("sim: a Tracer observes directory runs only")
	}
	if opt.Tracer != nil && opt.MetricsEpoch > 0 {
		return nil, fmt.Errorf("sim: Tracer and MetricsEpoch both set; a run carries one observer")
	}

	s := event.New()
	co := cpu.NewCoordinator(s, n)
	res := &Result{Benchmark: prog.Name, Protocol: opt.Protocol, Predictor: "directory"}
	if fast {
		// Recorded only for fast runs: detailed results keep their legacy
		// byte representation (and store digests).
		res.Mode = ModeFast
	}

	var ports []cpu.MemPort
	var dirSys *protocol.System
	var snpSys *snoop.System
	var sys interface{ SetObserver(*protocol.Obs) }
	var net *noc.Network

	switch opt.Protocol {
	case Directory:
		dirSys = protocol.New(s, opt.Machine, opt.Predictors)
		dirSys.Fast = fast
		sys, net = dirSys, dirSys.Net
		if opt.Predictors != nil && opt.Predictors[0] != nil {
			res.Predictor = opt.Predictors[0].Name()
		}
		for _, node := range dirSys.Nodes {
			ports = append(ports, node)
		}
	case Broadcast:
		snpSys = snoop.New(s, opt.Machine)
		snpSys.Fast = fast
		sys, net = snpSys, snpSys.Net
		res.Predictor = "broadcast"
		for _, node := range snpSys.Nodes {
			ports = append(ports, node)
		}
	}

	var obs *protocol.Obs
	var col *metrics.Collector
	switch {
	case opt.Tracer != nil:
		obs = opt.Tracer.Obs(s)
	case opt.MetricsEpoch > 0:
		col = metrics.NewCollector(s, metrics.Config{
			EpochCycles: opt.MetricsEpoch, Links: net.NumLinks(), Nodes: n,
		})
		col.Attach(net)
		obs = col.Obs()
	}
	sys.SetObserver(obs)

	finished := 0
	cores := make([]*cpu.Core, n)
	for i := 0; i < n; i++ {
		cores[i] = cpu.New(i, s, ports[i], co, prog.Threads[i], func() { finished++ })
		if fast {
			cores[i].EnableFast()
		}
	}
	for _, c := range cores {
		c.Start()
	}

	s.Run()
	if finished < n {
		return nil, fmt.Errorf("sim: deadlock in %s: %d/%d cores finished; %s", prog.Name, finished, n, co.Pending())
	}

	res.Cycles = s.Now()
	res.Events = s.Fired
	if col != nil {
		res.Metrics = col.Finalize(s.Now())
	}
	switch opt.Protocol {
	case Directory:
		for _, node := range dirSys.Nodes {
			res.StorageBits += node.Predictor().StorageBits()
		}
		res.Nodes = dirSys.Stats()
		res.Net = dirSys.NetStats()
		res.Energy = energy.Compute(res.Net, res.Nodes.SnoopLookups, energy.DefaultParams())
		if hard, _ := dirSys.CheckCoherence(); len(hard) > 0 {
			return nil, fmt.Errorf("sim: coherence violation in %s: %s", prog.Name, hard[0])
		}
	case Broadcast:
		res.Snoop = snpSys.Stats()
		res.Net = snpSys.NetStats()
		res.Energy = energy.Compute(res.Net, res.Snoop.SnoopLookups, energy.DefaultParams())
		if err := snpSys.CheckQuiescent(); err != nil {
			return nil, fmt.Errorf("sim: %s: %w", prog.Name, err)
		}
	}
	return res, nil
}
