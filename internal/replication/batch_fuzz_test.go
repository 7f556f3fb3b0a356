package replication

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzBatchDecode fuzzes the /v1/replicate body decoder — the surface
// every byte of peer traffic crosses. DecodeBatch must never panic,
// everything it accepts must carry only stamped, fully-identified
// records (the same check ApplyRemote makes before it reserves a key),
// and accepted bodies must round-trip through json.Marshal to an equal
// batch.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`{"from":"n1","records":[{"device":"unit-1","model":"Nexus 5","score":1500,"estimated_ambient":25,"accepted":true,"hlc_wall":1700000000000,"hlc_logical":3,"origin":"n1"}]}`))
	f.Add([]byte(`{"from":"n2","records":[]}`))
	f.Add([]byte(`{"from":"","records":[]}`))
	f.Add([]byte(`{"from":"n1","records":[{"device":"d","model":"m","score":1}]}`)) // unstamped
	f.Add([]byte(`{"from":"n1","records":[{"device":"","model":"m","hlc_wall":1,"origin":"x"}]}`))
	f.Add([]byte(`{"from":"n1","records":null}{"from":"n2"}`)) // trailing document
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := DecodeBatch(bytes.NewReader(raw))
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		if b.From == "" {
			t.Fatalf("DecodeBatch accepted a batch with no origin: %q", raw)
		}
		for i, rec := range b.Records {
			if _, ok := rec.Key(); !ok {
				t.Fatalf("DecodeBatch accepted unstamped record %d: %q", i, raw)
			}
			if rec.Model == "" || rec.Device == "" {
				t.Fatalf("DecodeBatch accepted unidentified record %d: %q", i, raw)
			}
		}
		// Accepted batches survive a marshal → decode round trip intact.
		wire, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("accepted batch failed to marshal: %v", err)
		}
		b2, err := DecodeBatch(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("re-marshaled batch failed to decode: %v\nwire: %s", err, wire)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("batch round-trip unstable:\nfirst:  %+v\nsecond: %+v", b, b2)
		}
	})
}
