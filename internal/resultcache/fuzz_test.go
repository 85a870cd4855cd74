package resultcache

import (
	"errors"
	"testing"
)

// FuzzFrameLog hammers the frame-log decoder (decodeHeader followed by
// decodeRecordsFrom) with arbitrary bytes. The contract under fuzz:
// the decoder never panics, and every rejection is one of the typed
// errors — torn frames, flipped bytes, and truncated tails must never
// produce a partial silent load (a nil error with fewer records than
// the file's complete frames claim).
func FuzzFrameLog(f *testing.F) {
	// Seed with a real log and the damage shapes a killed or
	// misbehaving writer can actually produce.
	key := Key{GitRevision: "rev", SpecHash: "hash", Seed: 1}
	good, err := headerBytes(key)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		frame, err := encodeRecord(Record{Batch: "fig04/delivery/s0", Trial: i, Data: []byte{byte(i), 0xAB, 0xCD}})
		if err != nil {
			f.Fatal(err)
		}
		good = append(good, frame...)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("DTNCKPT\n")) // magic only
	f.Add(good[:10])           // torn inside the version word
	f.Add(good[:len(good)-1])  // torn tail, one byte short
	f.Add(good[:len(good)/2])  // torn mid-file
	for _, pos := range []int{8, 12, 20, len(good) - 3} {
		flipped := append([]byte(nil), good...)
		flipped[pos] ^= 0x80
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		key, records, err := decodeLog(data)
		if err != nil {
			if !errors.Is(err, errNotFrameLog) && !errors.Is(err, errVersion) &&
				!errors.Is(err, errCorrupt) && !errors.Is(err, errTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted input: re-writing the same key and records must
		// reproduce a log that decodes to the same content — the
		// decoder may not have hallucinated structure.
		rt, err := headerBytes(key)
		if err != nil {
			t.Fatalf("re-encode accepted key: %v", err)
		}
		for _, r := range records {
			frame, err := encodeRecord(r)
			if err != nil {
				t.Fatalf("re-encode accepted record: %v", err)
			}
			rt = append(rt, frame...)
		}
		key2, records2, err := decodeLog(rt)
		if err != nil {
			t.Fatalf("round trip of accepted input failed: %v", err)
		}
		if key2 != key || len(records2) != len(records) {
			t.Fatalf("round trip diverged: %d vs %d records", len(records2), len(records))
		}
	})
}
