// Package workload generates the multithreaded programs that drive the
// simulator: per-thread operation streams with barriers, locks and shared-
// memory access patterns. It stands in for the paper's SPLASH-2 and PARSEC
// binaries (see DESIGN.md §1): each of the 17 named profiles reproduces the
// benchmark's synchronization structure (paper Table 1) and communication-
// pattern class (§3.4), while the actual coherence traffic is produced by
// the real protocol over real cache state.
package workload

import (
	"fmt"

	"spcoh/internal/arch"
)

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

// Op is one thread operation in two words, 16 bytes. Word a holds the kind
// in its top 8 bits and the byte address in its low 56 bits: the memory
// target of a read or write, the lock line of a lock or unlock, the arrival
// counter of a barrier, and 0 for compute and end ops. Word b holds the
// instruction PC of a read or write, the sync-point ID of a barrier, lock or
// unlock, and the cycle count of a compute op. Build ops with MemOp, SyncOp,
// ComputeOp and EndOp; two ops are == exactly when their Kind, Addr, N and
// Static are equal.
type Op struct {
	a, b uint64
}

// addrBits is the width of an op's address field.
const addrBits = 56

// pack builds an op, panicking on an address of 56 bits or more. The
// layout's largest address (barrierBase and up) is below 2^47.
func pack(k OpKind, addr arch.Addr, b uint64) Op {
	if addr >= 1<<addrBits {
		panic(fmt.Sprintf("workload: %v address %#x does not fit in 56 bits", k, uint64(addr)))
	}
	return Op{a: uint64(k)<<addrBits | uint64(addr), b: b}
}

// MemOp returns a read or write of addr by the instruction at pc.
func MemOp(k OpKind, addr arch.Addr, pc uint64) Op {
	if k != OpRead && k != OpWrite {
		panic(fmt.Sprintf("workload: MemOp of kind %v", k))
	}
	return pack(k, addr, pc)
}

// SyncOp returns a barrier, lock or unlock on line addr with sync-point ID id.
func SyncOp(k OpKind, addr arch.Addr, id uint64) Op {
	if k != OpBarrier && k != OpLock && k != OpUnlock {
		panic(fmt.Sprintf("workload: SyncOp of kind %v", k))
	}
	return pack(k, addr, id)
}

// ComputeOp returns n cycles of non-memory work.
func ComputeOp(n uint64) Op { return Op{a: uint64(OpCompute) << addrBits, b: n} }

// EndOp returns the op that ends a thread's stream.
func EndOp() Op { return Op{a: uint64(OpEnd) << addrBits} }

// Kind returns the op's kind.
func (o Op) Kind() OpKind { return OpKind(o.a >> addrBits) }

// Addr returns the op's byte address; 0 for compute and end ops.
func (o Op) Addr() arch.Addr { return arch.Addr(o.a & (1<<addrBits - 1)) }

// N returns a compute op's cycle count; 0 for every other kind.
func (o Op) N() uint64 {
	if o.Kind() != OpCompute {
		return 0
	}
	return o.b
}

// Static returns the instruction PC of a read or write and the sync-point
// ID of a barrier, lock or unlock; 0 for compute and end ops.
func (o Op) Static() uint64 {
	if o.Kind() == OpCompute {
		return 0
	}
	return o.b
}

// String prints the kind, then the address and PC or sync-point ID of a
// memory or sync op, or the cycles of a compute op.
func (o Op) String() string {
	switch k := o.Kind(); k {
	case OpRead, OpWrite:
		return fmt.Sprintf("%v %#x pc=%#x", k, uint64(o.Addr()), o.Static())
	case OpBarrier, OpLock, OpUnlock:
		return fmt.Sprintf("%v %#x id=%#x", k, uint64(o.Addr()), o.Static())
	case OpCompute:
		return fmt.Sprintf("compute n=%d", o.N())
	default:
		return k.String()
	}
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
