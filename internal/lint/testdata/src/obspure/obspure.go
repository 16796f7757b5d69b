// Package obspure exercises the observer-purity check: code reachable from
// observer callbacks must not mutate the simulation, schedule events, or
// make calls the analyzer cannot resolve.
package obspure

import (
	"fix/internal/event"
	"fix/internal/noc"
	"fix/internal/protocol"
)

// collector implements noc.Observer (root family 1).
type collector struct {
	sim      *event.Sim
	net      *noc.Network
	delivers int
	bytes    int
	fns      []func()
}

// Deliver is an observer method that injects traffic: impure.
func (c *collector) Deliver(now event.Time, bytes int) {
	c.delivers++
	c.net.SendFn(bytes) // want:obspure
}

// onStep is registered via Sim.SetObserver (root family 3); the violation
// sits one call deep.
func (c *collector) onStep(now event.Time, depth int) {
	c.record(depth)
}

func (c *collector) record(depth int) {
	c.sim.At(c.sim.Now()+1, nil) // want:obspure
	c.delivers += depth
}

// missHook is wired through a protocol.Obs literal (root family 2) and
// makes a dynamic call the analyzer cannot resolve.
func (c *collector) missHook(lat event.Time) {
	c.fns[0]() // want:obspure
}

func attach(c *collector, sys *protocol.System) {
	c.sim.SetObserver(c.onStep)
	sys.SetObserver(&protocol.Obs{
		Message: func(bytes int) { c.bytes += bytes },
		Miss:    c.missHook,
	})
}

// attachProbe registers a deliberately self-scheduling observer; the
// violation is acknowledged inline, so it must not be reported.
func attachProbe(c *collector) {
	c.sim.SetObserver(func(now event.Time, depth int) {
		c.sim.At(now+1, nil) //spvet:allow obspure -- fixture: sanctioned scheduling probe
	})
}

// pure paths — counter updates, arithmetic, calls to pure helpers — are
// fine at any depth.
func (c *collector) rate() int {
	if c.delivers == 0 {
		return 0
	}
	return c.bytes / c.delivers
}
