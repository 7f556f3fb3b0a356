package wire

import (
	"bytes"
	"testing"
)

// FuzzWireFrameDecode hammers the frame decoder with torn frames, bit
// flips, oversized length prefixes and arbitrary garbage. The
// properties under test: DecodeFrame/DecodeSubmissions/DecodeAck never
// panic whatever the bytes, and anything that decodes successfully
// survives a re-encode + re-decode with identical values (so the codec
// cannot silently lose or invent fields). Byte identity is not
// asserted — varint length prefixes admit non-minimal encodings — but
// value identity is.
func FuzzWireFrameDecode(f *testing.F) {
	valid, err := AppendBatchFrame(nil, 7, []Submission{
		{Device: "d1", Model: "Nexus 5", Score: 99.5,
			Cooldown: []Point{{AtSeconds: 0, TempC: 44}, {AtSeconds: 5, TempC: 40}}},
		{Device: "d2", Model: "Pixel", Score: 101, Origin: "n2", HLCWall: 7, HLCLogical: 3,
			Cooldown: []Point{{AtSeconds: 0, TempC: 39}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(AppendAckFrame(nil, Ack{Batch: 9, Committed: 16, Dropped: 1, CommitSeq: 400, Err: "unreplicated"}))
	f.Add(valid[:HeaderSize-1])           // torn header
	f.Add(valid[:len(valid)-2])           // torn payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversized length prefix
	flipped := append([]byte(nil), valid...)
	flipped[HeaderSize+3] ^= 0x01 // payload bit flip => CRC mismatch
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < HeaderSize || n > len(data) {
			t.Fatalf("frame size %d outside [%d, %d]", n, HeaderSize, len(data))
		}
		switch fr.Type {
		case FrameBatch:
			subs, err := DecodeSubmissions(fr)
			if err != nil {
				return
			}
			re, err := AppendBatchFrame(nil, fr.Seq, subs)
			if err != nil {
				t.Fatalf("re-encode of decoded batch failed: %v", err)
			}
			fr2, _, err := DecodeFrame(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded batch failed: %v", err)
			}
			subs2, err := DecodeSubmissions(fr2)
			if err != nil {
				t.Fatalf("re-decode of re-encoded batch payload failed: %v", err)
			}
			// Compare through a second encode: the minimal encoding is
			// deterministic, and byte comparison is exact even for NaN
			// score bits reflect would mis-compare.
			re2, err := AppendBatchFrame(nil, fr2.Seq, subs2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if fr2.Seq != fr.Seq || !bytes.Equal(re, re2) {
				t.Fatalf("batch round trip diverged:\n got %x\nwant %x", re2, re)
			}
		case FrameAck:
			ack, err := DecodeAck(fr)
			if err != nil {
				return
			}
			re := AppendAckFrame(nil, ack)
			fr2, _, err := DecodeFrame(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded ack failed: %v", err)
			}
			ack2, err := DecodeAck(fr2)
			if err != nil {
				t.Fatalf("re-decode of re-encoded ack payload failed: %v", err)
			}
			if ack2 != ack {
				t.Fatalf("ack round trip diverged: got %+v want %+v", ack2, ack)
			}
		}
	})
}
