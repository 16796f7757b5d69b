package protocol

import (
	"testing"

	"spcoh/internal/arch"
)

func TestMessageNames(t *testing.T) {
	kinds := []MsgKind{
		MsgGetS, MsgGetM, MsgPutS, MsgPutE, MsgPutM,
		MsgPredGetS, MsgPredGetM,
		MsgFwdGetS, MsgFwdGetM, MsgInv, MsgDirResp, MsgPutAck,
		MsgData, MsgInvAck, MsgNack, MsgDirUpd, MsgUnblock, MsgWriteback, MsgGetRetry,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "?" || name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate message name %q", name)
		}
		seen[name] = true
	}
	if MsgKind(200).String() != "?" {
		t.Fatal("unknown kind should stringify to ?")
	}
}

func TestMessageSizes(t *testing.T) {
	// Exactly the data-carrying messages pay for a cache line.
	dataKinds := map[MsgKind]bool{MsgData: true, MsgPutM: true, MsgWriteback: true}
	for k := MsgGetS; k <= MsgGetRetry; k++ {
		want := ControlBytes
		if dataKinds[k] {
			want = DataBytes
		}
		if k.Bytes() != want {
			t.Errorf("%v bytes = %d, want %d", k, k.Bytes(), want)
		}
	}
	if DataBytes != arch.LineSize+ControlBytes {
		t.Fatal("data message must carry one cache line plus header")
	}
}

func TestConfigSanity(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != cfg.NoC.Nodes() {
		t.Fatal("default config mesh mismatch")
	}
	if cfg.L2HitLatency() != cfg.L2TagLatency+cfg.L2DataLatency {
		t.Fatal("L2 hit latency must be tag+data")
	}
	// Paper Table 4 values.
	if cfg.L1.Bytes != 16<<10 || cfg.L1.Ways != 1 {
		t.Fatalf("L1 config = %+v", cfg.L1)
	}
	if cfg.L2.Bytes != 1<<20 || cfg.L2.Ways != 8 {
		t.Fatalf("L2 config = %+v", cfg.L2)
	}
	if cfg.MemLatency != 150 || cfg.L1Latency != 2 {
		t.Fatalf("latencies = %+v", cfg)
	}
}
