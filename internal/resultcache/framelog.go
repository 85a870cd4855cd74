package resultcache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
)

// This file is the frame log: the on-disk format of every cache shard.
// A log is an append-only write-ahead file:
//
//	magic   8 bytes  "DTNCKPT\n"
//	version u32 LE   format version (currently 1)
//	frame   key frame: gob-encoded Key
//	frame*  record frames: gob-encoded Record, one per completed trial
//
// where every frame is
//
//	length  u32 LE   payload byte count
//	crc     u32 LE   IEEE CRC-32 of the payload
//	payload length bytes
//
// The header is written atomically via temp-file + rename; record
// frames are appended with one write(2) each, so a SIGKILL can tear at
// most the final frame. The reader distinguishes that expected
// artifact (errTruncated — a writer is mid-append, or died there) from
// actual corruption (errCorrupt: CRC mismatch, undecodable gob, or an
// impossible frame length), which is always rejected loudly.
//
// Writers compose headerBytes + encodeRecord; readers compose
// decodeHeader + decodeRecordsFrom, incrementally, from any byte
// offset a previous decode returned. The bytes are pinned by
// TestFrameLogGoldenBytes: logs written by earlier releases must keep
// opening.

// formatVersion is the frame-log format version. Logs written by a
// different version are rejected with errVersion.
const formatVersion uint32 = 1

var magic = [8]byte{'D', 'T', 'N', 'C', 'K', 'P', 'T', '\n'}

// maxFrame bounds a single frame's payload. A declared length beyond
// it cannot come from this writer, so the reader classifies it as
// corruption rather than attempting a giant allocation.
const maxFrame = 16 << 20

// Typed load failures. Every way a log can fail to load maps to
// exactly one of these, so callers (and the fuzz target) can assert
// that no malformed input ever yields a partial silent load.
var (
	// errNotFrameLog: the file does not begin with the magic bytes.
	errNotFrameLog = errors.New("not a frame log")
	// errVersion: the format version is not the one this code writes.
	errVersion = errors.New("unsupported frame-log version")
	// errKeyMismatch: a shard's key frame names a different entry.
	errKeyMismatch = errors.New("key mismatch (foreign shard)")
	// errCorrupt: a complete frame fails its CRC, declares an
	// impossible length, or carries undecodable gob.
	errCorrupt = errors.New("corrupt frame")
	// errTruncated: the file ends mid-frame — the tear pattern of a
	// writer that is mid-append or was killed there.
	errTruncated = errors.New("truncated trailing frame")
)

// Key is a log's key frame: the identity every shard of one cache
// entry must carry. gob writes the type and field names into the key
// frame, so they are part of the on-disk format and must not change.
type Key struct {
	GitRevision string // always ContentRevision; the slot predates content addressing
	SpecHash    string // the entry's content key
	Seed        uint64 // base RNG seed
}

// Record is one persisted trial result: which batch (scenario series)
// and trial index it is, plus the runner's gob encoding of the value.
// Like Key, its type and field names are part of the on-disk format.
type Record struct {
	Batch string
	Trial int
	Data  []byte
}

// headerBytes serializes a log header (magic, version, key frame) for
// key. Writers persist it atomically before appending record frames.
func headerBytes(key Key) ([]byte, error) {
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], formatVersion)
	hdr.Write(ver[:])
	keyFrame, err := encodeFrame(&key)
	if err != nil {
		return nil, fmt.Errorf("resultcache: encode key: %w", err)
	}
	hdr.Write(keyFrame)
	return hdr.Bytes(), nil
}

// encodeRecord serializes one record as a complete CRC frame, ready to
// be appended to a log with a single write.
func encodeRecord(rec Record) ([]byte, error) {
	frame, err := encodeFrame(&rec)
	if err != nil {
		return nil, fmt.Errorf("resultcache: encode record: %w", err)
	}
	return frame, nil
}

// decodeHeader parses and validates a log header, returning the stored
// key and the offset of the first record frame. Malformed headers map
// to the typed errors (errNotFrameLog, errVersion, errTruncated,
// errCorrupt).
func decodeHeader(data []byte) (Key, int, error) {
	var key Key
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		return Key{}, 0, errNotFrameLog
	}
	off := len(magic)
	if len(data) < off+4 {
		return Key{}, 0, fmt.Errorf("%w: header ends mid-version", errTruncated)
	}
	if v := binary.LittleEndian.Uint32(data[off:]); v != formatVersion {
		return Key{}, 0, fmt.Errorf("%w: file has version %d, this build reads %d", errVersion, v, formatVersion)
	}
	off += 4
	payload, next, err := readFrame(data, off)
	if err != nil {
		return Key{}, 0, fmt.Errorf("key frame: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&key); err != nil {
		return Key{}, 0, fmt.Errorf("%w: key frame gob: %v", errCorrupt, err)
	}
	return key, next, nil
}

// decodeRecordsFrom parses record frames starting at off (a value
// previously returned by decodeHeader or decodeRecordsFrom), returning
// the decoded records and the offset of the last byte belonging to a
// complete frame. On a torn tail the records decoded so far are
// returned alongside errTruncated — shard refresh treats that as "a
// writer is mid-append, retry from validEnd later", while reopening
// one's own shard uses validEnd as the repair point.
func decodeRecordsFrom(data []byte, off int) (records []Record, validEnd int, err error) {
	validEnd = off
	for off < len(data) {
		payload, next, ferr := readFrame(data, off)
		if ferr != nil {
			// Records decoded so far are intact; report them alongside
			// the error so callers can repair or retry a torn tail.
			return records, validEnd, fmt.Errorf("record %d: %w", len(records), ferr)
		}
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return records, validEnd, fmt.Errorf("%w: record %d gob: %v", errCorrupt, len(records), err)
		}
		records = append(records, rec)
		off = next
		validEnd = off
	}
	return records, validEnd, nil
}

// readFrame parses one frame at off, returning its payload and the
// offset of the next frame. It distinguishes a frame that runs past
// the end of the data (errTruncated — a torn append) from one whose
// complete bytes are inconsistent (errCorrupt).
func readFrame(data []byte, off int) (payload []byte, next int, err error) {
	if off+8 > len(data) {
		return nil, 0, fmt.Errorf("%w: frame header ends at byte %d", errTruncated, len(data))
	}
	length := binary.LittleEndian.Uint32(data[off:])
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if length > maxFrame {
		return nil, 0, fmt.Errorf("%w: frame declares impossible length %d", errCorrupt, length)
	}
	start := off + 8
	end := start + int(length)
	if end > len(data) {
		return nil, 0, fmt.Errorf("%w: frame payload ends at byte %d", errTruncated, len(data))
	}
	payload = data[start:end]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, 0, fmt.Errorf("%w: CRC %08x, frame claims %08x", errCorrupt, got, crc)
	}
	return payload, end, nil
}

// encodeFrame gob-encodes v and wraps it in a length+CRC frame.
func encodeFrame(v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, err
	}
	if payload.Len() > maxFrame {
		return nil, fmt.Errorf("frame payload %d bytes exceeds limit %d", payload.Len(), maxFrame)
	}
	frame := make([]byte, 8+payload.Len())
	binary.LittleEndian.PutUint32(frame[0:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[8:], payload.Bytes())
	return frame, nil
}
