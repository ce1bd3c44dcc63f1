package ofp10

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHelloShape(t *testing.T) {
	b := Hello(7)
	if len(b) != 8 {
		t.Fatalf("hello len = %d", len(b))
	}
	h, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeHello || h.XID != 7 || h.Length != 8 {
		t.Fatalf("header: %+v", h)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	payload := []byte("ping")
	req := EchoRequest(1, payload)
	h, err := ParseHeader(req)
	if err != nil || h.Type != TypeEchoRequest {
		t.Fatalf("echo req: %v %v", h, err)
	}
	if !bytes.Equal(req[8:], payload) {
		t.Fatal("payload mangled")
	}
	rep := EchoReply(1, req[8:])
	if h, _ := ParseHeader(rep); h.Type != TypeEchoReply {
		t.Fatal("echo reply type")
	}
}

func TestParseHeaderValidation(t *testing.T) {
	if _, err := ParseHeader([]byte{1, 2, 3}); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	bad := Hello(1)
	bad[0] = 0x04 // OF 1.3
	if _, err := ParseHeader(bad); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	short := Hello(1)
	short[3] = 4 // length < header
	if _, err := ParseHeader(short); err != ErrBadLength {
		t.Fatalf("length: %v", err)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	fm := &FlowMod{
		XID:      42,
		Match:    HostPairMatch(3, 9),
		Cookie:   0xDEADBEEF,
		Command:  FCAdd,
		Priority: 100,
		Actions:  []ActionOutput{{Port: 2}},
	}
	enc := fm.Encode()
	if len(enc) != FlowModLen(1) {
		t.Fatalf("len = %d, want %d", len(enc), FlowModLen(1))
	}
	// The canonical OF1.0 flow_mod with one output action is 80 bytes.
	if len(enc) != 80 {
		t.Fatalf("wire size = %d, want 80", len(enc))
	}
	got, err := DecodeFlowMod(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.XID != 42 || got.Cookie != 0xDEADBEEF || got.Priority != 100 {
		t.Fatalf("fields: %+v", got)
	}
	if got.Match != fm.Match {
		t.Fatalf("match: %+v vs %+v", got.Match, fm.Match)
	}
	if len(got.Actions) != 1 || got.Actions[0].Port != 2 {
		t.Fatalf("actions: %+v", got.Actions)
	}
}

func TestHostPairMatchSemantics(t *testing.T) {
	m := HostPairMatch(3, 9)
	if m.NWSrc != 0x0A000003 || m.NWDst != 0x0A000009 {
		t.Fatalf("addresses: %x %x", m.NWSrc, m.NWDst)
	}
	if m.DLType != 0x0800 {
		t.Fatal("not IPv4")
	}
	// NW src/dst exact (mask-length bits zero), ports wildcarded.
	if m.Wildcards&(uint32(63)<<8) != 0 || m.Wildcards&(uint32(63)<<14) != 0 {
		t.Fatalf("NW wildcards set: %x", m.Wildcards)
	}
	if m.Wildcards&WildcardTPSrc == 0 || m.Wildcards&WildcardTPDst == 0 {
		t.Fatal("ports not wildcarded — Pythia cannot know them")
	}
}

func TestDecodeFlowModRejects(t *testing.T) {
	fm := (&FlowMod{Match: HostPairMatch(1, 2), Actions: []ActionOutput{{Port: 1}}}).Encode()
	if _, err := DecodeFlowMod(fm[:20]); err == nil {
		t.Fatal("truncated accepted")
	}
	wrongType := append([]byte(nil), fm...)
	wrongType[1] = byte(TypeHello)
	if _, err := DecodeFlowMod(wrongType); err != ErrBadType {
		t.Fatalf("type: %v", err)
	}
	badAction := append([]byte(nil), fm...)
	badAction[72] = 0xFF // action type
	if _, err := DecodeFlowMod(badAction); err == nil {
		t.Fatal("unsupported action accepted")
	}
}

func TestPortStatsRoundTrip(t *testing.T) {
	req := PortStatsRequest(5)
	if h, err := ParseHeader(req); err != nil || h.Type != TypeStatsRequest {
		t.Fatalf("req: %v %v", h, err)
	}
	entries := []PortStats{
		{PortNo: 1, RxBytes: 111, TxBytes: 222},
		{PortNo: 2, RxBytes: 333, TxBytes: 444},
	}
	rep := EncodePortStatsReply(5, entries)
	got, err := DecodePortStatsReply(rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != entries[0] || got[1] != entries[1] {
		t.Fatalf("entries: %+v", got)
	}
}

func TestDecodePortStatsRejects(t *testing.T) {
	rep := EncodePortStatsReply(1, []PortStats{{PortNo: 1}})
	if _, err := DecodePortStatsReply(rep[:30]); err == nil {
		t.Fatal("truncated accepted")
	}
	notPort := append([]byte(nil), rep...)
	notPort[9] = 0 // stats type low byte: OFPST_PORT(4) -> OFPST_DESC(0)
	if _, err := DecodePortStatsReply(notPort); err == nil {
		t.Fatal("wrong stats type accepted")
	}
}

// Property: FlowMod round-trips for arbitrary field values and action
// counts.
func TestPropertyFlowModRoundTrip(t *testing.T) {
	f := func(xid uint32, cookie uint64, prio uint16, src, dst uint32, nActs uint8) bool {
		fm := &FlowMod{
			XID: xid, Cookie: cookie, Priority: prio,
			Match:   HostPairMatch(src, dst),
			Command: FCAdd,
		}
		for i := 0; i < int(nActs%8); i++ {
			fm.Actions = append(fm.Actions, ActionOutput{Port: uint16(i)})
		}
		got, err := DecodeFlowMod(fm.Encode())
		if err != nil {
			return false
		}
		if got.XID != xid || got.Cookie != cookie || got.Priority != prio {
			return false
		}
		if len(got.Actions) != len(fm.Actions) {
			return false
		}
		return got.Match == fm.Match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for typ, want := range map[MsgType]string{
		TypeHello: "HELLO", TypeFlowMod: "FLOW_MOD", TypeStatsReply: "STATS_REPLY",
	} {
		if typ.String() != want {
			t.Fatalf("%d = %q", typ, typ.String())
		}
	}
	if MsgType(99).String() == "" {
		t.Fatal("unknown empty")
	}
}

// FuzzParse hardens header + flow-mod + stats parsing against arbitrary
// bytes.
func FuzzParse(f *testing.F) {
	f.Add(Hello(1))
	f.Add((&FlowMod{Match: HostPairMatch(1, 2), Actions: []ActionOutput{{Port: 3}}}).Encode())
	f.Add(EncodePortStatsReply(9, []PortStats{{PortNo: 4, TxBytes: 5}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic.
		if _, err := ParseHeader(data); err != nil {
			return
		}
		DecodeFlowMod(data)
		DecodePortStatsReply(data)
	})
}

func TestFeaturesRoundTrip(t *testing.T) {
	req := FeaturesRequest(3)
	if h, err := ParseHeader(req); err != nil || h.Type != TypeFeaturesRequest {
		t.Fatalf("req: %v %v", h, err)
	}
	fr := &FeaturesReply{XID: 3, DatapathID: 0xAABB, NumPorts: 6}
	got, err := DecodeFeaturesReply(fr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.XID != 3 || got.DatapathID != 0xAABB || got.NumPorts != 6 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestDecodeFeaturesRejects(t *testing.T) {
	fr := (&FeaturesReply{NumPorts: 1}).Encode()
	if _, err := DecodeFeaturesReply(fr[:10]); err == nil {
		t.Fatal("truncated accepted")
	}
	wrong := Hello(1)
	if _, err := DecodeFeaturesReply(wrong); err != ErrBadType {
		t.Fatalf("type: %v", err)
	}
}
