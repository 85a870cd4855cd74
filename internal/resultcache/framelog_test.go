package resultcache

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var testLogKey = Key{GitRevision: "abc123", SpecHash: "deadbeef", Seed: 42}

// writeLog returns the bytes of a frame log holding n records, exactly
// as a shard writer lays them out.
func writeLog(t testing.TB, key Key, n int) []byte {
	t.Helper()
	data, err := headerBytes(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		frame, err := encodeRecord(Record{Batch: "batch/a", Trial: i, Data: []byte{byte(i), 0xFF, byte(i * 3)}})
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, frame...)
	}
	return data
}

// decodeLog strictly decodes a whole log image: header, then every
// record frame. A torn tail is an error here.
func decodeLog(data []byte) (Key, []Record, error) {
	key, off, err := decodeHeader(data)
	if err != nil {
		return Key{}, nil, err
	}
	records, _, err := decodeRecordsFrom(data, off)
	if err != nil {
		return Key{}, nil, err
	}
	return key, records, nil
}

func TestFrameLogRoundTrip(t *testing.T) {
	key, records, err := decodeLog(writeLog(t, testLogKey, 5))
	if err != nil {
		t.Fatal(err)
	}
	if key != testLogKey {
		t.Fatalf("key = %+v, want %+v", key, testLogKey)
	}
	if len(records) != 5 {
		t.Fatalf("got %d records, want 5", len(records))
	}
	for i, r := range records {
		if r.Batch != "batch/a" || r.Trial != i || !bytes.Equal(r.Data, []byte{byte(i), 0xFF, byte(i * 3)}) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestFrameLogRejectsWrongMagicAndVersion(t *testing.T) {
	data := writeLog(t, testLogKey, 1)

	bad := append([]byte("NOTACKPT"), data[8:]...)
	if _, _, err := decodeLog(bad); !errors.Is(err, errNotFrameLog) {
		t.Fatalf("wrong magic: err = %v, want errNotFrameLog", err)
	}

	future := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(future[8:], formatVersion+1)
	if _, _, err := decodeLog(future); !errors.Is(err, errVersion) {
		t.Fatalf("future version: err = %v, want errVersion", err)
	}

	if _, _, err := decodeLog([]byte("short")); !errors.Is(err, errNotFrameLog) {
		t.Fatalf("short file: err = %v, want errNotFrameLog", err)
	}
}

func TestFrameLogRejectsCorruptFrames(t *testing.T) {
	data := writeLog(t, testLogKey, 3)

	// Flip one payload byte near the end: CRC of that record must fail.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-2] ^= 0x40
	if _, _, err := decodeLog(flipped); !errors.Is(err, errCorrupt) {
		t.Fatalf("flipped byte: err = %v, want errCorrupt", err)
	}

	// An impossible declared frame length is corruption, not truncation.
	huge := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(huge[12:], maxFrame+1)
	if _, _, err := decodeLog(huge); !errors.Is(err, errCorrupt) {
		t.Fatalf("huge length: err = %v, want errCorrupt", err)
	}
}

// TestFrameLogTornTail pins the tear classification every shard reader
// relies on: a log cut inside its final frame is errTruncated, the
// complete records before the cut are returned, and validEnd is the
// boundary a writer repairs back to.
func TestFrameLogTornTail(t *testing.T) {
	intact := writeLog(t, testLogKey, 3)
	full := writeLog(t, testLogKey, 4)
	torn := full[:len(full)-2]
	_, off, err := decodeHeader(torn)
	if err != nil {
		t.Fatal(err)
	}
	records, validEnd, err := decodeRecordsFrom(torn, off)
	if !errors.Is(err, errTruncated) {
		t.Fatalf("torn tail: err = %v, want errTruncated", err)
	}
	if len(records) != 3 {
		t.Fatalf("got %d intact records before the tear, want 3", len(records))
	}
	if validEnd != len(intact) {
		t.Fatalf("validEnd = %d, want %d (end of the last complete frame)", validEnd, len(intact))
	}

	// A cut inside the key frame leaves no key to validate.
	if _, _, err := decodeHeader(full[:14]); !errors.Is(err, errTruncated) {
		t.Fatalf("header tear: err = %v, want errTruncated", err)
	}
}

// The golden frame log: the header and one record frame for goldenKey
// and goldenRecord, as written by a fresh process. gob numbers types
// process-wide in first-use order, so Key gets type id 64 and Record
// 65 only in a process that encodes nothing else first.
const (
	goldenEntry  = "dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d"
	goldenHeader = "44544e434b50540a010000009200000076fe1957367f030101034b657901ff80000103010b4769745265766973696f6e010c0001085370656348617368010c0001045365656401060000005aff800111636f6e74656e742d616464726573736564014064643536646534313337393531643963393236383162303334313665633135663838366234343832613237653361353137643332663038353234346362653564012a00"
	goldenFrame  = "510000003e4a224231ff81030101065265636f726401ff8200010301054261746368010c000105547269616c010400010444617461010a0000001eff82011166696730342f64656c69766572792f73300106010401abcdef00"
	goldenEnv    = "RESULTCACHE_GOLDEN_CHILD"
)

var (
	goldenKey    = Key{GitRevision: ContentRevision, SpecHash: goldenEntry, Seed: 42}
	goldenRecord = Record{Batch: "fig04/delivery/s0", Trial: 3, Data: []byte{0x01, 0xAB, 0xCD, 0xEF}}
)

// TestFrameLogGoldenBytes pins the on-disk format. The writer side
// runs in a fresh child process (see goldenHeader) and must reproduce
// the golden bytes exactly; the reader side must decode them, and a
// cache entry holding them as a shard must open and serve the record,
// so entries written by earlier releases stay readable.
func TestFrameLogGoldenBytes(t *testing.T) {
	if os.Getenv(goldenEnv) != "" {
		hdr, err := headerBytes(goldenKey)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := encodeRecord(goldenRecord)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(hdr); got != goldenHeader {
			t.Errorf("header bytes changed:\n got %s\nwant %s", got, goldenHeader)
		}
		if got := hex.EncodeToString(frame); got != goldenFrame {
			t.Errorf("record frame bytes changed:\n got %s\nwant %s", got, goldenFrame)
		}
		return
	}
	child := exec.Command(os.Args[0], "-test.run=^TestFrameLogGoldenBytes$", "-test.count=1", "-test.v")
	child.Env = append(os.Environ(), goldenEnv+"=1")
	out, err := child.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: TestFrameLogGoldenBytes")) {
		t.Fatalf("writer side: %v\n%s", err, out)
	}

	hdr, _ := hex.DecodeString(goldenHeader)
	frame, _ := hex.DecodeString(goldenFrame)
	shard := append(hdr, frame...)
	key, records, err := decodeLog(shard)
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenKey || len(records) != 1 || records[0].Batch != goldenRecord.Batch ||
		records[0].Trial != goldenRecord.Trial || !bytes.Equal(records[0].Data, goldenRecord.Data) {
		t.Fatalf("decoded %+v %+v, want %+v %+v", key, records, goldenKey, goldenRecord)
	}

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, goldenEntry), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, goldenEntry, "shard-earlier.log"), shard, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, goldenEntry, "fig04", 42, "reader")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, ok := s.Peek(goldenRecord.Batch, goldenRecord.Trial); !ok || !bytes.Equal(got, goldenRecord.Data) {
		t.Fatalf("golden shard served %x, %v; want %x", got, ok, goldenRecord.Data)
	}
}
