package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzWALRecordDecode fuzzes the frame codec — the surface every byte on
// disk crosses at boot, including bytes a crash or bit rot mangled.
// DecodeFrame must never panic; any frame it accepts must re-encode
// byte-identically (otherwise torn-tail truncation could shift the log's
// replay offset); and every encode→decode roundtrip must be lossless.
func FuzzWALRecordDecode(f *testing.F) {
	f.Add([]byte(nil), uint64(0))
	f.Add([]byte(`{"device":"d","model":"Nexus 5","score":1500,"seq":1}`), uint64(1))
	f.Add(AppendFrame(nil, 7, []byte("a valid frame as raw input")), uint64(7))
	f.Add(AppendFrame(nil, ^uint64(0), nil), uint64(42))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint64(3)) // absurd length field
	f.Add(bytes.Repeat([]byte{0}, FrameHeaderSize), uint64(0))
	f.Add(bytes.Repeat([]byte{0}, FrameHeaderSize-1), uint64(0)) // one byte short of a header
	f.Fuzz(func(t *testing.T, raw []byte, seq uint64) {
		// Arbitrary bytes: decode rejects or accepts, never panics, and an
		// accepted prefix re-encodes to exactly the bytes it was read from.
		gotSeq, payload, n, err := DecodeFrame(raw)
		switch {
		case err == nil:
			if n < FrameHeaderSize || n > len(raw) {
				t.Fatalf("decoded frame size %d out of bounds for %d input bytes", n, len(raw))
			}
			re := AppendFrame(nil, gotSeq, payload)
			if !bytes.Equal(re, raw[:n]) {
				t.Fatalf("accepted frame does not re-encode to its own bytes:\nin:  %x\nout: %x", raw[:n], re)
			}
		case !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrCorruptFrame):
			t.Fatalf("DecodeFrame returned an unknown error: %v", err)
		}

		// Encode→decode: lossless for any payload and sequence number.
		frame := AppendFrame(nil, seq, raw)
		gotSeq, payload, n, err = DecodeFrame(frame)
		if err != nil {
			t.Fatalf("roundtrip decode failed: %v", err)
		}
		if gotSeq != seq || n != len(frame) || !bytes.Equal(payload, raw) {
			t.Fatalf("roundtrip lost data: seq %d→%d, %d bytes→%d", seq, gotSeq, len(raw), len(payload))
		}
		// The decoded frame must also survive a scan with trailing garbage:
		// the scanner stops exactly at the frame boundary.
		if validLen, lastSeq := scanFrames(append(frame, 0xba, 0xdd)); validLen != len(frame) || lastSeq != seq {
			t.Fatalf("scan over frame+garbage = (%d, %d), want (%d, %d)", validLen, lastSeq, len(frame), seq)
		}
	})
}

// FuzzSnapshotParse fuzzes the snapshot decoder — the other surface the
// data directory's bytes cross at boot. parseSnapshot must never panic;
// anything it accepts must carry validating checksums and the format
// version this build reads; a valid image must round-trip its seq, count
// and payload; and changing any one byte of a valid image must get it
// refused.
func FuzzSnapshotParse(f *testing.F) {
	payload := []byte(`[{"device":"d","model":"Nexus 5","score":1500,"seq":7}]`)
	valid := append(EncodeSnapshotHeader(7, 1, payload), payload...)
	v2 := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(v2[8:12], 2)
	binary.LittleEndian.PutUint32(v2[44:48], crc32.Checksum(v2[0:44], castagnoli))
	f.Add(valid, uint64(7), uint64(1), uint(0))
	f.Add(valid[:SnapshotHeaderSize-4], uint64(0), uint64(0), uint(9))
	f.Add(v2, ^uint64(0), uint64(3), uint(47))
	f.Fuzz(func(t *testing.T, raw []byte, seq, count uint64, flip uint) {
		if _, _, got, err := parseSnapshot(raw); err == nil {
			le := binary.LittleEndian
			switch {
			case le.Uint32(raw[44:48]) != crc32.Checksum(raw[0:44], castagnoli):
				t.Fatal("accepted a snapshot whose header checksum fails")
			case le.Uint32(raw[40:44]) != crc32.Checksum(got, castagnoli):
				t.Fatal("accepted a snapshot whose payload checksum fails")
			case le.Uint32(raw[8:12]) != SnapshotVersion:
				t.Fatalf("accepted format version %d", le.Uint32(raw[8:12]))
			}
		}

		image := append(EncodeSnapshotHeader(seq, count, raw), raw...)
		gotSeq, gotCount, got, err := parseSnapshot(image)
		if err != nil {
			t.Fatalf("valid snapshot refused: %v", err)
		}
		if gotSeq != seq || gotCount != count || !bytes.Equal(got, raw) {
			t.Fatalf("roundtrip lost data: seq %d→%d, count %d→%d, %d bytes→%d", seq, gotSeq, count, gotCount, len(raw), len(got))
		}
		image[flip%uint(len(image))] ^= 0xff
		if _, _, _, err := parseSnapshot(image); err == nil {
			t.Fatalf("snapshot with byte %d changed was accepted", flip%uint(len(image)))
		}
	})
}
