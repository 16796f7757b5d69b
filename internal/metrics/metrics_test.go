package metrics

import (
	"bytes"
	"reflect"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/event"
	"spcoh/internal/noc"
	"spcoh/internal/protocol"
)

func fullSetMinus(n arch.NodeID) arch.SharerSet {
	return arch.FullSet(16).Remove(n)
}

func TestLatBucket(t *testing.T) {
	cases := []struct {
		lat  uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 20, NumLatBuckets - 1}, {^uint64(0), NumLatBuckets - 1},
	}
	for _, c := range cases {
		if got := LatBucket(c.lat); got != c.want {
			t.Errorf("LatBucket(%d) = %d, want %d", c.lat, got, c.want)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		kind protocol.MsgKind
		want MsgClass
	}{
		{protocol.MsgGetS, ClassRequest},
		{protocol.MsgGetM, ClassRequest},
		{protocol.MsgPredGetS, ClassRequest},
		{protocol.MsgData, ClassResponse},
		{protocol.MsgDirResp, ClassResponse},
		{protocol.MsgWriteback, ClassResponse},
		{protocol.MsgFwdGetS, ClassInvalidate},
		{protocol.MsgInv, ClassInvalidate},
		{protocol.MsgInvAck, ClassAck},
	}
	for _, c := range cases {
		if got := ClassOf(c.kind); got != c.want {
			t.Errorf("ClassOf(%v) = %v, want %v", c.kind, got, c.want)
		}
	}
	if names := ClassNames(); len(names) != NumClasses || names[0] != "request" || names[3] != "ack" {
		t.Errorf("ClassNames() = %v", names)
	}
}

// TestCollectorEpochAttribution drives the collector's hooks from inside
// scheduled events and checks that every counter lands in the right epoch,
// including a link-occupancy interval split across two boundaries.
func TestCollectorEpochAttribution(t *testing.T) {
	s := event.New()
	c := NewCollector(s, Config{EpochCycles: 10, Links: 2, Nodes: 2})
	s.SetObserver(c.onStep)

	s.At(5, func() {
		c.LinkBusy(0, 5, 25) // spans epochs 0 (5 cycles), 1 (10), 2 (5)
		c.LinkStall(1, 3)
		c.Deliver(6)
	})
	s.At(15, func() {
		c.message(ClassRequest, 4)
		c.message(ClassAck, 0)
	})
	s.At(25, func() {
		c.miss(1, 100, true, true, true)
		c.sync(0)
	})
	s.Run()

	series := c.Finalize(s.Now())
	if err := series.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(series.Epochs) != 3 {
		t.Fatalf("got %d epochs, want 3", len(series.Epochs))
	}
	e0, e1, e2 := &series.Epochs[0], &series.Epochs[1], &series.Epochs[2]

	if e0.LinkBusy[0] != 5 || e1.LinkBusy[0] != 10 || e2.LinkBusy[0] != 5 {
		t.Errorf("link 0 busy split = %d/%d/%d, want 5/10/5",
			e0.LinkBusy[0], e1.LinkBusy[0], e2.LinkBusy[0])
	}
	if e0.LinkStall[1] != 3 || e1.LinkStall[1] != 0 {
		t.Errorf("stall attribution wrong: %d/%d", e0.LinkStall[1], e1.LinkStall[1])
	}
	if e0.Delivered != 1 || e0.DeliveryLat[LatBucket(6)] != 1 {
		t.Errorf("epoch 0 delivery not recorded: %+v", e0)
	}
	if e1.ClassCount[ClassRequest] != 1 || e1.ClassCount[ClassAck] != 1 ||
		e1.ClassLat[ClassRequest][LatBucket(4)] != 1 || e1.ClassLat[ClassAck][0] != 1 {
		t.Errorf("epoch 1 class counts wrong: %+v", e1)
	}
	if e0.ClassCount[ClassRequest] != 0 || e2.ClassCount[ClassRequest] != 0 {
		t.Errorf("class counts leaked across epochs")
	}
	if e2.Misses != 1 || e2.CommMisses != 1 || e2.Predicted != 1 || e2.PredCorrect != 1 ||
		e2.MissLatSum != 100 || e2.NodeMisses[1] != 1 || e2.NodeSyncs[0] != 1 {
		t.Errorf("epoch 2 miss/sync counters wrong: %+v", e2)
	}
	if e2.Accuracy() != 1 || e2.Coverage() != 1 {
		t.Errorf("accuracy/coverage = %v/%v, want 1/1", e2.Accuracy(), e2.Coverage())
	}
	if e0.Fired != 1 || e1.Fired != 1 || e2.Fired != 1 {
		t.Errorf("fired per epoch = %d/%d/%d, want 1/1/1", e0.Fired, e1.Fired, e2.Fired)
	}
	if e2.End != 25 {
		t.Errorf("final epoch End = %d, want truncated to 25", e2.End)
	}
}

// TestCollectorEmptyEpochs checks that epochs with no activity are
// materialized as all-zero rows, keeping the series contiguous.
func TestCollectorEmptyEpochs(t *testing.T) {
	s := event.New()
	c := NewCollector(s, Config{EpochCycles: 10, Links: 1, Nodes: 1})
	s.SetObserver(c.onStep)
	s.At(5, func() { c.Deliver(2) })
	s.At(45, func() {})
	s.Run()

	series := c.Finalize(s.Now())
	if err := series.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(series.Epochs) != 5 {
		t.Fatalf("got %d epochs, want 5", len(series.Epochs))
	}
	for i := 1; i < 4; i++ {
		e := &series.Epochs[i]
		if e.Fired != 0 || e.Delivered != 0 {
			t.Errorf("epoch %d not empty: %+v", i, e)
		}
	}
	if series.Epochs[4].Fired != 1 {
		t.Errorf("epoch 4 fired = %d, want 1", series.Epochs[4].Fired)
	}
}

// TestCollectorOnNetwork runs real traffic over a mesh with the collector
// attached and cross-checks the series totals against the NoC's own
// statistics.
func TestCollectorOnNetwork(t *testing.T) {
	s := event.New()
	net := noc.New(s, noc.DefaultConfig())
	c := NewCollector(s, Config{EpochCycles: 32, Links: net.NumLinks(), Nodes: 16})
	c.Attach(net)

	for i := 0; i < 8; i++ {
		src, dst := arch.NodeID(i), arch.NodeID(15-i)
		net.SendFn(src, dst, 64, func(any) {}, nil)
	}
	net.Broadcast(0, fullSetMinus(0), 8, func(any) {}, make([]any, 16))
	s.Run()

	series := c.Finalize(s.Now())
	if err := series.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := net.Stats()
	var delivered, stall uint64
	for i := range series.Epochs {
		e := &series.Epochs[i]
		delivered += e.Delivered
		for _, v := range e.LinkStall {
			stall += v
		}
	}
	if delivered != st.Deliveries {
		t.Errorf("series delivered = %d, noc Deliveries = %d", delivered, st.Deliveries)
	}
	if stall != st.StallCycles {
		t.Errorf("series stall = %d, noc StallCycles = %d", stall, st.StallCycles)
	}
	var fired uint64
	for i := range series.Epochs {
		fired += series.Epochs[i].Fired
	}
	if fired != s.Fired {
		t.Errorf("series fired = %d, sim Fired = %d", fired, s.Fired)
	}
}

// TestSeriesJSONRoundTripDeterministic encodes a series twice and checks
// the bytes are identical, then decodes and compares structurally.
func TestSeriesJSONRoundTripDeterministic(t *testing.T) {
	s := event.New()
	net := noc.New(s, noc.DefaultConfig())
	c := NewCollector(s, Config{EpochCycles: 16, Links: net.NumLinks(), Nodes: 16})
	c.Attach(net)
	net.Broadcast(3, fullSetMinus(3), 8, func(any) {}, make([]any, 16))
	s.Run()
	series := c.Finalize(s.Now())

	var a, b bytes.Buffer
	if err := series.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := series.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same series differ")
	}
	back, err := ReadJSON(&a)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !reflect.DeepEqual(series, back) {
		t.Fatal("series does not survive a JSON round trip")
	}
}

func TestValidateRejectsCorruptSeries(t *testing.T) {
	s := event.New()
	c := NewCollector(s, Config{EpochCycles: 10, Links: 1, Nodes: 1})
	s.SetObserver(c.onStep)
	s.At(15, func() {})
	s.Run()
	series := c.Finalize(s.Now())
	if err := series.Validate(); err != nil {
		t.Fatalf("clean series rejected: %v", err)
	}

	bad := *series
	bad.SchemaVersion = SchemaVersion + 1
	if bad.Validate() == nil {
		t.Error("wrong schema version accepted")
	}

	bad = *series
	bad.Epochs = append([]EpochRow(nil), series.Epochs...)
	bad.Epochs[1].Epoch = 5
	if bad.Validate() == nil {
		t.Error("non-contiguous epoch accepted")
	}

	bad = *series
	bad.Epochs = append([]EpochRow(nil), series.Epochs...)
	bad.Epochs[0].LinkBusy = nil
	if bad.Validate() == nil {
		t.Error("mis-shaped link cells accepted")
	}
}
