package replication

import (
	"encoding/json"
	"fmt"
	"io"

	"accubench/internal/store"
)

// DecodeBatch parses and validates the body of one /v1/replicate POST,
// or of a peer's GET /v1/replicate model dump pulled by anti-entropy.
// It is the cluster's trust boundary for peer traffic: the server
// answers 400 to anything DecodeBatch rejects, and a pull it rejects
// fails, so protocol garbage — a truncated body, trailing bytes,
// unstamped records, records missing their model or device identity —
// is refused before ApplyRemote ever sees it. The decoder is fuzzed
// (FuzzBatchDecode) in `make fuzz-smoke`.
func DecodeBatch(r io.Reader) (Batch, error) {
	var b Batch
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return Batch{}, fmt.Errorf("replication: batch undecodable: %w", err)
	}
	// One JSON document per body: trailing data means a framing bug (or a
	// hostile peer), not a batch.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Batch{}, fmt.Errorf("replication: trailing data after batch")
	}
	if b.From == "" {
		return Batch{}, fmt.Errorf("replication: batch missing origin node ID")
	}
	if err := checkRecords(b.Records); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// checkRecords refuses a batch holding any record a replica cannot
// commit: one without an HLC stamp (it has no cluster-wide identity) or
// without its model or device (the store would refuse it after the WAL
// had already logged it).
func checkRecords(recs []store.Record) error {
	for i, rec := range recs {
		if _, ok := rec.Key(); !ok {
			return fmt.Errorf("replication: record %d of %d is unstamped", i, len(recs))
		}
		if rec.Model == "" {
			return fmt.Errorf("replication: record %d of %d has no model", i, len(recs))
		}
		if rec.Device == "" {
			return fmt.Errorf("replication: record %d of %d has no device", i, len(recs))
		}
	}
	return nil
}
