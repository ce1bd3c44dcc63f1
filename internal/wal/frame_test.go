package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzReadFrame: on arbitrary bytes readFrame never panics, never sizes a
// buffer above maxRecordBytes or far beyond the bytes it was given, and
// returns only a payload the input holds under a matching CRC; and
// appendFrame's output of the same bytes reads back whole.
func FuzzReadFrame(f *testing.F) {
	var framed bytes.Buffer
	appendFrame(&framed, []byte(`{"virtual_sec":1,"ops":[]}`))
	f.Add(framed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, maxRecordBytes)
	f.Add(append(hdr, "short"...))
	binary.LittleEndian.PutUint32(hdr, maxRecordBytes+1)
	f.Add(hdr)
	torn := append([]byte(nil), framed.Bytes()...)
	torn[len(torn)-1] ^= 0xff
	f.Add(torn)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := readFrame(bytes.NewReader(data), nil)
		if c := cap(p); c > maxRecordBytes || c > 2*(len(data)+frameChunk) {
			t.Fatalf("buffer of cap %d for %d input bytes", c, len(data))
		}
		if err == nil {
			if n != frameHeader+len(p) || n > len(data) || !bytes.Equal(p, data[frameHeader:n]) {
				t.Fatalf("frame of %d bytes, payload %d bytes, from %d input bytes", n, len(p), len(data))
			}
			if crc32.Checksum(p, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
				t.Fatal("payload accepted under a mismatched CRC")
			}
		}

		var w bytes.Buffer
		if _, err := appendFrame(&w, data); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(&w)
		got, n, err := readFrame(r, p)
		if err != nil || n != frameHeader+len(data) || !bytes.Equal(got, data) {
			t.Fatalf("round trip: %d bytes, err %v", n, err)
		}
		if _, _, err := readFrame(r, got); err != io.EOF {
			t.Fatalf("after the only frame: %v, want io.EOF", err)
		}
	})
}
