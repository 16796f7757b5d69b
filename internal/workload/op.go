// Package workload generates the multithreaded programs that drive the
// simulator: per-thread operation streams with barriers, locks and shared-
// memory access patterns. It stands in for the paper's SPLASH-2 and PARSEC
// binaries (see DESIGN.md §1): each of the 17 named profiles reproduces the
// benchmark's synchronization structure (paper Table 1) and communication-
// pattern class (§3.4), while the actual coherence traffic is produced by
// the real protocol over real cache state.
package workload

import "spcoh/internal/arch"

// OpKind enumerates thread operations.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
	OpCompute
	OpBarrier
	OpLock
	OpUnlock
	OpEnd
)

// String returns the op mnemonic.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCompute:
		return "compute"
	case OpBarrier:
		return "barrier"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	case OpEnd:
		return "end"
	default:
		return "?"
	}
}

// Op is one thread operation, 24 bytes: Kind and N share the first word.
// Static holds whichever static identity the kind has (no op has both), so
// a program's ops cost three words each.
type Op struct {
	Kind   OpKind
	N      uint32    // compute cycles (OpCompute)
	Addr   arch.Addr // memory target; lock line for lock/unlock
	Static uint64    // instruction PC (read/write); sync-point ID (barrier/lock/unlock)
}

// Address-space layout. Regions are widely separated so they never collide;
// the simulator only ever sees line addresses.
const (
	privateBase = arch.Addr(0x1000_0000_0000)
	sharedBase  = arch.Addr(0x2000_0000_0000)
	lockBase    = arch.Addr(0x3000_0000_0000)
	barrierBase = arch.Addr(0x4000_0000_0000)

	threadSpan = arch.Addr(1) << 32 // private bytes per thread
	regionSpan = arch.Addr(1) << 32 // bytes per shared region
)

// PrivateAddr returns the address of line `line` in a thread's private heap.
func PrivateAddr(tid, line int) arch.Addr {
	return privateBase + arch.Addr(tid)*threadSpan + arch.Addr(line)*arch.LineSize
}

// SharedAddr returns the address of line `line` in a shared region.
func SharedAddr(region, line int) arch.Addr {
	return sharedBase + arch.Addr(region)*regionSpan + arch.Addr(line)*arch.LineSize
}

// SliceAddr returns line `line` within the slice of a shared region owned
// by thread `owner`, where each thread's slice holds sliceLines lines.
func SliceAddr(region, owner, sliceLines, line int) arch.Addr {
	return SharedAddr(region, owner*sliceLines+line%sliceLines)
}

// LockAddr returns the cache line of lock `id`.
func LockAddr(id int) arch.Addr { return lockBase + arch.Addr(id)*arch.LineSize }

// BarrierAddr returns the cache line of barrier `id`'s arrival counter.
func BarrierAddr(id uint64) arch.Addr { return barrierBase + arch.Addr(id)*arch.LineSize }

// Program is a complete multithreaded workload.
type Program struct {
	Name    string
	Threads [][]Op

	// Static structure, for Table 1 reporting.
	StaticBarriers     int
	StaticCritSections int
}

// NumThreads returns the thread count.
func (p *Program) NumThreads() int { return len(p.Threads) }

// TotalOps returns the op count across threads.
func (p *Program) TotalOps() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t)
	}
	return n
}
