package noc

import (
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/event"
)

func nopDeliverArg(any) {}

// ptrArgs returns per-destination Broadcast arguments that are all the
// same pointer, so delivering one boxes nothing.
func ptrArgs(nodes int) []any {
	arg := new(int)
	args := make([]any, nodes)
	for d := range args {
		args[d] = arg
	}
	return args
}

func warm(sim *event.Sim, n *Network) {
	// Grow event-ring buckets once so the steady state is measured, not
	// first-touch growth.
	all := arch.EmptySet
	for i := 0; i < n.cfg.Nodes(); i++ {
		all = all.Add(arch.NodeID(i))
	}
	args := ptrArgs(n.cfg.Nodes())
	for i := 0; i < 64; i++ {
		n.SendFn(0, arch.NodeID(i%n.cfg.Nodes()), 64, nopDeliverArg, nil)
		n.Broadcast(arch.NodeID(i%n.cfg.Nodes()), all, 8, nopDeliverArg, args)
	}
	sim.Run()
	// Settle: drive the drained pattern through a few full ring revolutions
	// so every bucket index the steady state touches has grown its slice.
	for i := 0; i < 256; i++ {
		n.SendFn(0, arch.NodeID(i%n.cfg.Nodes()), 64, nopDeliverArg, nil)
		sim.Run()
		n.Broadcast(arch.NodeID(i%n.cfg.Nodes()), all, 8, nopDeliverArg, args)
		sim.Run()
	}
}

// TestAllocsSendCeiling enforces the NoC injection contract: a steady-state
// SendFn (pre-bound callback, warm ring) allocates nothing.
func TestAllocsSendCeiling(t *testing.T) {
	sim := event.New()
	n := New(sim, DefaultConfig())
	warm(sim, n)
	arg := new(int)

	if avg := testing.AllocsPerRun(500, func() {
		n.SendFn(0, 5, 64, nopDeliverArg, arg)
		sim.Run()
	}); avg != 0 {
		t.Errorf("steady-state SendFn: %v allocs/op, want 0", avg)
	}
}

// TestAllocsBroadcastCeiling pins Broadcast's per-call overhead: with a
// pre-bound callback and pointer-shaped per-destination args, a warm
// broadcast allocates nothing (tree scratch is reused, and the network
// keeps no per-destination binding).
func TestAllocsBroadcastCeiling(t *testing.T) {
	sim := event.New()
	n := New(sim, DefaultConfig())
	warm(sim, n)
	all := arch.EmptySet
	for i := 0; i < n.cfg.Nodes(); i++ {
		all = all.Add(arch.NodeID(i))
	}
	args := ptrArgs(n.cfg.Nodes())
	if avg := testing.AllocsPerRun(500, func() {
		n.Broadcast(3, all, 8, nopDeliverArg, args)
		sim.Run()
	}); avg != 0 {
		t.Errorf("steady-state Broadcast: %v allocs/op, want 0", avg)
	}
}

func BenchmarkSend(b *testing.B) { benchSend(b, DefaultConfig()) }

func BenchmarkBroadcast(b *testing.B) { benchBroadcast(b, DefaultConfig()) }

// The 16x16 forms walk routes of up to 30 hops and broadcast trees of 255
// links, where the per-hop walk loop dominates.
func BenchmarkSend16x16(b *testing.B) { benchSend(b, mesh16()) }

func BenchmarkBroadcast16x16(b *testing.B) { benchBroadcast(b, mesh16()) }

func mesh16() Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 16, 16
	return cfg
}

func benchSend(b *testing.B, cfg Config) {
	b.ReportAllocs()
	sim := event.New()
	n := New(sim, cfg)
	warm(sim, n)
	nodes := cfg.Nodes()
	arg := new(int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendFn(arch.NodeID(i%nodes), arch.NodeID((i*7)%nodes), 64, nopDeliverArg, arg)
		sim.Run()
	}
}

func benchBroadcast(b *testing.B, cfg Config) {
	b.ReportAllocs()
	sim := event.New()
	n := New(sim, cfg)
	warm(sim, n)
	nodes := cfg.Nodes()
	all := arch.EmptySet
	for i := 0; i < nodes; i++ {
		all = all.Add(arch.NodeID(i))
	}
	args := ptrArgs(nodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Broadcast(arch.NodeID(i%nodes), all, 8, nopDeliverArg, args)
		sim.Run()
	}
}
