// Package trace persists and replays L2-miss/sync-point traces — the
// methodology of the paper's §3.2 characterization study, which collects
// "L2 miss traces that contain the miss data address, type, PC, and the
// target set of cores" plus "all sync-points along with their type and
// static/dynamic IDs".
//
// The format is a compact varint-encoded binary stream, written by the
// Collector (a consumer of the protocol's observer hooks) and consumed by
// the characterization pipeline or the sptrace inspection tool.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"spcoh/internal/arch"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
)

// EventKind discriminates trace records.
type EventKind uint8

const (
	// EvMiss is a completed L2 miss with its communication outcome.
	EvMiss EventKind = iota
	// EvSync is a synchronization point crossing.
	EvSync
)

// Event is one trace record.
type Event struct {
	Kind  EventKind
	Cycle event.Time
	Node  arch.NodeID

	// Miss fields.
	Line          arch.LineAddr
	PC            uint64
	MissKind      predictor.MissKind
	Provider      arch.NodeID // arch.None if memory
	Invalidated   arch.SharerSet
	Communicating bool

	// Sync fields.
	SyncKind predictor.SyncKind
	StaticID uint64
}

// Targets returns the full communication set of a miss event.
func (e *Event) Targets() arch.SharerSet {
	s := e.Invalidated
	if e.Provider != arch.None {
		s = s.Add(e.Provider)
	}
	return s
}

const magic = "SPTR1\n"

// Writer streams events to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	n     int
	wrote bool
	err   error
}

// NewWriter begins a trace stream.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

func (w *Writer) uv(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

// Write appends one event.
func (w *Writer) Write(e *Event) error {
	if !w.wrote {
		w.wrote = true
		if _, err := w.w.WriteString(magic); err != nil {
			return err
		}
	}
	w.uv(uint64(e.Kind))
	w.uv(uint64(e.Cycle))
	w.uv(uint64(e.Node))
	switch e.Kind {
	case EvMiss:
		w.uv(uint64(e.Line))
		w.uv(e.PC)
		w.uv(uint64(e.MissKind))
		w.uv(uint64(e.Provider + 1)) // None (-1) encodes as 0
		// The binary format stores one 64-bit word of invalidation targets;
		// traces are captured on the paper's 16-node machine, far below the
		// word boundary.
		w.uv(e.Invalidated.Bits64())
		if e.Communicating {
			w.uv(1)
		} else {
			w.uv(0)
		}
	case EvSync:
		w.uv(uint64(e.SyncKind))
		w.uv(e.StaticID)
	default:
		return fmt.Errorf("trace: bad event kind %d", e.Kind)
	}
	if w.err == nil {
		w.n++
	}
	return w.err
}

// Count returns the number of events written so far.
func (w *Writer) Count() int { return w.n }

// Flush drains buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes a trace stream.
type Reader struct {
	r       *bufio.Reader
	started bool
}

// NewReader opens a trace stream.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Next decodes the next event; io.EOF at the end of the stream.
func (r *Reader) Next() (*Event, error) {
	if !r.started {
		hdr := make([]byte, len(magic))
		if _, err := io.ReadFull(r.r, hdr); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, errors.New("trace: truncated header")
			}
			return nil, err
		}
		if string(hdr) != magic {
			return nil, errors.New("trace: bad magic (not a trace file?)")
		}
		r.started = true
	}
	kind, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, err
	}
	e := &Event{Kind: EventKind(kind)}
	rd := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = binary.ReadUvarint(r.r)
		return v
	}
	e.Cycle = event.Time(rd())
	e.Node = arch.NodeID(rd())
	switch e.Kind {
	case EvMiss:
		e.Line = arch.LineAddr(rd())
		e.PC = rd()
		e.MissKind = predictor.MissKind(rd())
		e.Provider = arch.NodeID(rd()) - 1
		e.Invalidated = arch.SetFromBits64(rd())
		e.Communicating = rd() != 0
	case EvSync:
		e.SyncKind = predictor.SyncKind(rd())
		e.StaticID = rd()
	default:
		return nil, fmt.Errorf("trace: bad event kind %d", kind)
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, errors.New("trace: truncated event")
		}
		return nil, err
	}
	return e, nil
}

// ReadAll decodes the entire stream.
func ReadAll(r io.Reader) ([]*Event, error) {
	tr := NewReader(r)
	var out []*Event
	for {
		e, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// Collector records the events a run's protocol.Obs hooks (Obs) report,
// buffering them in memory and optionally streaming them to a Writer.
type Collector struct {
	Events []*Event
	W      *Writer // optional
	err    error
}

// Obs returns the directory-protocol hooks that record every completed L2
// miss with its outcome and every sync-point crossing, each stamped with
// s's clock.
func (c *Collector) Obs(s *event.Sim) *protocol.Obs {
	return &protocol.Obs{
		Miss: func(m predictor.Miss, o predictor.Outcome, _ event.Time, _, _ bool) {
			c.add(&Event{Kind: EvMiss, Cycle: s.Now(), Node: m.Node, Line: m.Line, PC: m.PC,
				MissKind: m.Kind, Provider: o.Provider, Invalidated: o.Invalidated,
				Communicating: o.Communicating})
		},
		Sync: func(e predictor.SyncEvent) {
			c.add(&Event{Kind: EvSync, Cycle: s.Now(), Node: e.Node, SyncKind: e.Kind, StaticID: e.StaticID})
		},
	}
}

func (c *Collector) add(e *Event) {
	c.Events = append(c.Events, e)
	if c.W != nil && c.err == nil {
		c.err = c.W.Write(e)
	}
}

// Err reports any streaming-write error.
func (c *Collector) Err() error { return c.err }
