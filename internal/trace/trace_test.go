package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"spcoh/internal/arch"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
)

func sampleEvents(n int, seed int64) []*Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Event, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = &Event{Kind: EvSync, Cycle: event.Time(rng.Intn(1 << 20)),
				Node: arch.NodeID(rng.Intn(16)), SyncKind: predictor.SyncKind(rng.Intn(6)),
				StaticID: rng.Uint64() >> 20}
		} else {
			prov := arch.NodeID(rng.Intn(17)) - 1
			out[i] = &Event{Kind: EvMiss, Cycle: event.Time(rng.Intn(1 << 20)),
				Node: arch.NodeID(rng.Intn(16)), Line: arch.LineAddr(rng.Uint64() >> 30),
				PC: uint64(rng.Intn(1 << 22)), MissKind: predictor.MissKind(rng.Intn(3)),
				Provider: prov, Invalidated: arch.SetFromBits64(rng.Uint64() & 0xFFFF),
				Communicating: rng.Intn(2) == 0}
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	events := sampleEvents(500, 1)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 500 {
		t.Fatalf("count = %d", w.Count())
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if *got[i] != *events[i] {
			t.Fatalf("event %d mismatch:\n%+v\n%+v", i, got[i], events[i])
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic must error")
	}
}

func TestTruncated(t *testing.T) {
	events := sampleEvents(10, 2)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		w.Write(e)
	}
	w.Flush()
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadAll(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated stream must error")
	}
}

func TestEmptyStream(t *testing.T) {
	got, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v %v", got, err)
	}
}

func TestTargets(t *testing.T) {
	e := &Event{Kind: EvMiss, Provider: 3, Invalidated: arch.SetOf(1)}
	if e.Targets() != arch.SetOf(1, 3) {
		t.Fatalf("targets = %v", e.Targets())
	}
	e.Provider = arch.None
	if e.Targets() != arch.SetOf(1) {
		t.Fatalf("targets = %v", e.Targets())
	}
}

func TestCollector(t *testing.T) {
	var buf bytes.Buffer
	c := &Collector{W: NewWriter(&buf)}
	s := event.New()
	obs := c.Obs(s)
	s.At(10, func() {
		obs.Miss(predictor.Miss{Node: 2, Line: 0x40, PC: 0x400, Kind: predictor.ReadMiss},
			predictor.Outcome{Provider: 5, Communicating: true}, 3, false, false)
	})
	s.At(20, func() {
		obs.Sync(predictor.SyncEvent{Node: 2, Kind: predictor.SyncBarrier, StaticID: 7})
	})
	s.Run()
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if len(c.Events) != 2 {
		t.Fatalf("events = %d", len(c.Events))
	}
	if c.Events[0].Cycle != 10 || c.Events[1].Cycle != 20 {
		t.Fatalf("cycles = %d, %d; want the engine clock 10, 20", c.Events[0].Cycle, c.Events[1].Cycle)
	}
	c.W.Flush()
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 2 {
		t.Fatalf("stream: %d events, err %v", len(got), err)
	}
	if got[0].Provider != 5 || got[1].SyncKind != predictor.SyncBarrier {
		t.Fatalf("decoded: %+v %+v", got[0], got[1])
	}
}

// Property: any generated event sequence round-trips bit-exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		events := sampleEvents(int(n), seed)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, e := range events {
			if w.Write(e) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range events {
			if *got[i] != *events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
