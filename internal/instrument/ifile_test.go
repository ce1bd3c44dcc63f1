package instrument

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Hadoop VInt compatibility: known encodings from the WritableUtils spec.
func TestVLongKnownEncodings(t *testing.T) {
	cases := []struct {
		v    int64
		want []byte
	}{
		{0, []byte{0x00}},
		{127, []byte{0x7f}},
		{-112, []byte{0x90}},
		{128, []byte{0x8f, 0x80}},        // -113, then 0x80
		{255, []byte{0x8f, 0xff}},        // one magnitude byte
		{256, []byte{0x8e, 0x01, 0x00}},  // two magnitude bytes
		{-113, []byte{0x87, 0x70}},       // negative: -121, ^v = 112
		{-256, []byte{0x87, 0xff}},       // ^(-256) = 255
		{-257, []byte{0x86, 0x01, 0x00}}, // ^(-257) = 256
		{1 << 40, []byte{0x8a, 0x01, 0, 0, 0, 0, 0}},
	}
	for _, c := range cases {
		got := AppendVLong(nil, c.v)
		if !bytes.Equal(got, c.want) {
			t.Errorf("encode(%d) = %x, want %x", c.v, got, c.want)
		}
		back, n, err := ReadVLong(got)
		if err != nil || back != c.v || n != len(got) {
			t.Errorf("decode(%x) = %d,%d,%v", got, back, n, err)
		}
		if VLongLen(c.v) != len(c.want) {
			t.Errorf("VLongLen(%d) = %d, want %d", c.v, VLongLen(c.v), len(c.want))
		}
	}
}

// Property: VLong round-trips for any int64.
func TestPropertyVLongRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		enc := AppendVLong(nil, v)
		got, n, err := ReadVLong(enc)
		return err == nil && got == v && n == len(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestReadVLongErrors(t *testing.T) {
	if _, _, err := ReadVLong(nil); err != ErrVIntTruncated {
		t.Fatalf("empty: %v", err)
	}
	// Multi-byte header with missing magnitude bytes.
	if _, _, err := ReadVLong([]byte{0x8e, 0x01}); err != ErrVIntTruncated {
		t.Fatalf("truncated magnitude: %v", err)
	}
}

func TestIFileSegmentRoundTrip(t *testing.T) {
	records := []IFileRecord{
		{Key: []byte("alpha"), Value: []byte("1")},
		{Key: []byte("beta"), Value: bytes.Repeat([]byte("x"), 300)},
		{Key: []byte{}, Value: []byte{}},
	}
	seg := EncodeIFileSegment(records)
	got, stats, err := DecodeIFileSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range records {
		if !bytes.Equal(got[i].Key, records[i].Key) || !bytes.Equal(got[i].Value, records[i].Value) {
			t.Fatalf("record %d mangled", i)
		}
	}
	if stats.Records != 3 || stats.KeyBytes != 9 || stats.ValBytes != 301 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.WireBytes != int64(len(seg)) {
		t.Fatal("wire bytes wrong")
	}
}

func TestIFileEmptySegment(t *testing.T) {
	seg := EncodeIFileSegment(nil)
	got, stats, err := DecodeIFileSegment(seg)
	if err != nil || len(got) != 0 || stats.Records != 0 {
		t.Fatalf("empty segment: %v %v %+v", got, err, stats)
	}
}

func TestIFileCorruptionDetected(t *testing.T) {
	seg := EncodeIFileSegment([]IFileRecord{{Key: []byte("k"), Value: []byte("v")}})
	bad := append([]byte(nil), seg...)
	bad[1] ^= 0xFF
	if _, _, err := DecodeIFileSegment(bad); err == nil {
		t.Fatal("corrupted segment accepted")
	}
	if _, _, err := DecodeIFileSegment(seg[:2]); err == nil {
		t.Fatal("truncated segment accepted")
	}
}

func TestFramingOverheadJustifiesFactor(t *testing.T) {
	// With ~200-byte records (typical shuffle key/values), the measured
	// IFile framing overhead sits near the 1% IFileFramingFactor the
	// index builder assumes.
	var records []IFileRecord
	for i := 0; i < 1000; i++ {
		records = append(records, IFileRecord{
			Key:   bytes.Repeat([]byte("k"), 20),
			Value: bytes.Repeat([]byte("v"), 180),
		})
	}
	_, stats, err := DecodeIFileSegment(EncodeIFileSegment(records))
	if err != nil {
		t.Fatal(err)
	}
	over := stats.FramingOverhead()
	if math.Abs(over-(IFileFramingFactor-1)) > 0.005 {
		t.Fatalf("measured framing overhead %.4f vs assumed %.4f", over, IFileFramingFactor-1)
	}
}

func TestSampleIFileStats(t *testing.T) {
	var records []IFileRecord
	for i := 0; i < 100; i++ {
		records = append(records, IFileRecord{Key: []byte("key"), Value: []byte("value")})
	}
	seg := EncodeIFileSegment(records)
	stats, err := SampleIFileStats(seg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 10 {
		t.Fatalf("sampled %d records, want 10", stats.Records)
	}
	// Mean record size from the sample predicts the full segment.
	meanRec := float64(stats.KeyBytes+stats.ValBytes) / float64(stats.Records)
	if meanRec != 8 {
		t.Fatalf("mean record = %v, want 8", meanRec)
	}
	// Sampling more than exist stops at EOF.
	all, err := SampleIFileStats(seg, 1000)
	if err != nil || all.Records != 100 {
		t.Fatalf("full sample: %+v %v", all, err)
	}
}

// Property: segments of arbitrary record shapes round-trip and overhead is
// always positive.
func TestPropertyIFileRoundTrip(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 64 {
			return true
		}
		var records []IFileRecord
		for _, s := range sizes {
			records = append(records, IFileRecord{
				Key:   bytes.Repeat([]byte{0xAB}, int(s%32)),
				Value: bytes.Repeat([]byte{0xCD}, int(s)),
			})
		}
		seg := EncodeIFileSegment(records)
		got, stats, err := DecodeIFileSegment(seg)
		if err != nil || len(got) != len(records) {
			return false
		}
		return stats.WireBytes > stats.KeyBytes+stats.ValBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeIFile hardens the record parser against arbitrary bytes.
func FuzzDecodeIFile(f *testing.F) {
	f.Add(EncodeIFileSegment(nil))
	f.Add(EncodeIFileSegment([]IFileRecord{{Key: []byte("k"), Value: []byte("v")}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success, re-encode round-trips.
		recs, _, err := DecodeIFileSegment(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeIFileSegment(recs), data) {
			t.Fatal("decode/encode not a round trip")
		}
	})
}
