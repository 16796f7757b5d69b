// Package noc is a miniature stand-in for the interconnect: it declares the
// Observer interface the obspure check keys its first root family on.
package noc

import "fix/internal/event"

// Observer receives interconnect telemetry.
type Observer interface {
	Deliver(now event.Time, bytes int)
}

// Network is the mini interconnect.
type Network struct {
	obs Observer
	n   int
}

// SetObserver attaches telemetry.
func (n *Network) SetObserver(o Observer) { n.obs = o }

// SendFn injects traffic; calling it from an observer is a purity violation.
func (n *Network) SendFn(bytes int) { n.n += bytes }
