package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"mime"
	"net/http"
	"sync"
	"time"

	"accubench/internal/ingest"
	"accubench/internal/wire"
)

// isJSONContent reports whether a Content-Type names JSON. An absent
// header is allowed — curl demos and minimal clients — but anything
// explicitly non-JSON (a binary frame mis-sent to the JSON route, a
// form post) is refused with 415 before the body is decoded.
func isJSONContent(ct string) bool {
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/json"
}

// isWireContent reports whether a Content-Type names the binary wire
// protocol. The stream route requires it explicitly — a JSON body
// arriving here is a misdirected client, not a stream.
func isWireContent(ct string) bool {
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == wire.ContentType
}

// handleStream is the binary streaming batch-ingest path: the client
// holds one chunked POST open, sends batch frames, and reads one ack
// frame per batch off the response — full duplex over HTTP/1.1. Each
// decoded batch commits through ingest.SubmitBatch (one WAL group
// append, one store lock pass per shard); in cluster mode misrouted
// submissions are forwarded to their shard primary and the ack waits
// for a replica acknowledgement, so an acked batch has the same
// durability contract as a JSON 202 "committed".
//
// Flow control is the window the client runs: the handler reads the
// next frame only after the previous batch's ack is written, so a
// saturated node slows the stream instead of buffering it. A frame
// that fails CRC or decode terminates the stream — past the framing
// layer no byte can be trusted — and the client reopens and retries
// unacked batches (dup-safe in cluster mode: resubmissions take fresh
// stamps and the newest stamp per device wins).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); !isWireContent(ct) {
		s.unsupportedMedia.Inc()
		writeJSON(w, http.StatusUnsupportedMediaType, submitResponse{
			Status: "rejected",
			Error:  "POST /v1/stream takes " + wire.ContentType + " frames; JSON uploads go to /v1/submissions",
		})
		return
	}
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		writeJSON(w, http.StatusInternalServerError, submitResponse{Status: "error", Error: "full-duplex streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	rc.Flush()

	s.wmet.Streams.Inc()
	s.wmet.StreamsActive.Add(1)
	defer s.wmet.StreamsActive.Add(-1)

	forwarded := r.Header.Get(forwardedHeader) != ""
	rd := wire.NewReader(r.Body)
	var ackBuf []byte
	for {
		fr, err := rd.Next()
		if err == io.EOF {
			return // clean end of stream at a frame boundary
		}
		if err != nil {
			if errors.Is(err, wire.ErrCorruptFrame) || errors.Is(err, wire.ErrShortFrame) {
				s.wmet.BadFrames.Inc()
			}
			return
		}
		s.wmet.Frames.Inc()
		t0 := time.Now()
		ack := s.ingestWireFrame(r.Context(), fr, forwarded)
		s.wmet.AckLatency.Observe(time.Since(t0).Seconds())
		ackBuf = wire.AppendAckFrame(ackBuf[:0], ack)
		if _, err := w.Write(ackBuf); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
		s.wmet.Acks.Inc()
	}
}

// ingestWireFrame commits one batch frame and builds its ack. In
// cluster mode the batch is first partitioned by shard primary: each
// primary's share forwards as a one-shot wire POST in its own goroutine
// while the locally-owned share commits here, so a mixed batch waits for
// the slower of the two rather than their sum. Once both finish, shares
// whose primary was unreachable ingest locally, exactly like the JSON
// route, and the ack merges every result.
func (s *Server) ingestWireFrame(ctx context.Context, fr wire.Frame, forwarded bool) wire.Ack {
	ack := wire.Ack{Batch: fr.Seq}
	if fr.Type != wire.FrameBatch {
		s.wmet.BadFrames.Inc()
		ack.Err = "expected a batch frame"
		return ack
	}
	wsubs, err := wire.DecodeSubmissions(fr)
	if err != nil {
		s.wmet.BadFrames.Inc()
		ack.Dropped = uint32(fr.Count)
		ack.Err = "undecodable batch: " + err.Error()
		return ack
	}
	s.wmet.Batches.Inc()
	s.wmet.Submissions.Add(uint64(len(wsubs)))
	s.wmet.BatchSize.Observe(float64(len(wsubs)))

	// An already-forwarded frame ingests here unconditionally — two
	// nodes with transiently different ring views must not bounce a
	// batch between them.
	if s.repl == nil || forwarded {
		s.commitWire(ctx, &ack, wsubs)
		return ack
	}

	// Cluster routing: split the batch by each model's shard primary.
	type forward struct {
		node  string
		group []wire.Submission
		ack   wire.Ack
		sent  bool
	}
	var fwds []forward
	local := wsubs[:0]
	for _, sub := range wsubs {
		primary := s.repl.Primary(sub.Model)
		if primary == s.repl.NodeID() {
			local = append(local, sub)
			continue
		}
		i := 0
		for i < len(fwds) && fwds[i].node != primary {
			i++
		}
		if i == len(fwds) {
			fwds = append(fwds, forward{node: primary})
		}
		fwds[i].group = append(fwds[i].group, sub)
	}
	var wg sync.WaitGroup
	seq := fr.Seq
	for i := range fwds {
		f := &fwds[i]
		base, ok := s.repl.PeerURL(f.node)
		if !ok {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.ack, f.sent = s.forwardWireBatch(base, seq, f.group)
		}()
	}
	s.commitWire(ctx, &ack, local)
	wg.Wait()

	var fallback []wire.Submission
	for _, f := range fwds {
		if !f.sent {
			// Primary unreachable: ingest here. Safe — the record's
			// identity is (origin, stamp), never colliding with the
			// primary's, and anti-entropy converges the shard.
			s.wmet.ForwardFallbacks.Inc()
			fallback = append(fallback, f.group...)
			continue
		}
		s.wmet.ForwardedBatches.Inc()
		ack.Committed += f.ack.Committed
		ack.Dropped += f.ack.Dropped
		if f.ack.Err != "" && ack.Err == "" {
			ack.Err = "primary " + f.node + ": " + f.ack.Err
		}
	}
	s.commitWire(ctx, &ack, fallback)
	return ack
}

// commitWire commits submissions on this node and folds the outcome
// into ack: SubmitBatch's one WAL group append, then, in cluster mode,
// the wait for a replica acknowledgement of every committed record.
func (s *Server) commitWire(ctx context.Context, ack *wire.Ack, wsubs []wire.Submission) {
	if len(wsubs) == 0 {
		return
	}
	subs := make([]ingest.Submission, len(wsubs))
	for i, ws := range wsubs {
		subs[i] = wireToIngest(ws)
	}
	cctx, cancel := context.WithTimeout(ctx, s.cfg.SubmitTimeout)
	res, err := s.pipe.SubmitBatch(cctx, subs)
	cancel()
	ack.Dropped += uint32(res.Invalid + res.Failed)
	if err != nil {
		if ack.Err == "" {
			ack.Err = err.Error()
		}
		return
	}
	if res.Failed > 0 && ack.Err == "" {
		ack.Err = "commit failed; retry the batch"
	}
	if len(res.Records) == 0 {
		return
	}
	if s.repl != nil {
		if err := s.repl.ShipWaitBatch(res.Records); err != nil {
			// Durable here but on no replica yet: refuse the ack for
			// these records so the client retries (dup-safe — fresh
			// stamps, newest per device wins). The local copies stay;
			// anti-entropy spreads them once a peer returns.
			s.wmet.Unreplicated.Inc()
			ack.Dropped += uint32(len(res.Records))
			if ack.Err == "" {
				ack.Err = "unreplicated: " + err.Error()
			}
			return
		}
	}
	ack.Committed += uint32(len(res.Records))
	for i := range res.Records {
		if res.Records[i].Seq > ack.CommitSeq {
			ack.CommitSeq = res.Records[i].Seq
		}
	}
}

// forwardWireBatch proxies a sub-batch to its shard primary as a
// one-shot wire POST (single frame, single ack) and returns the
// primary's ack; sent is false when the primary was unreachable or
// answered garbage, in which case the caller ingests locally.
func (s *Server) forwardWireBatch(base string, seq uint64, subs []wire.Submission) (wire.Ack, bool) {
	buf, err := wire.AppendBatchFrame(nil, seq, subs)
	if err != nil {
		return wire.Ack{}, false
	}
	req, err := http.NewRequest(http.MethodPost, base+wire.StreamPath, bytes.NewReader(buf))
	if err != nil {
		return wire.Ack{}, false
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set(forwardedHeader, s.cfg.Cluster.NodeID)
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return wire.Ack{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return wire.Ack{}, false
	}
	fr, err := wire.NewReader(resp.Body).Next()
	if err != nil {
		return wire.Ack{}, false
	}
	ack, err := wire.DecodeAck(fr)
	if err != nil {
		return wire.Ack{}, false
	}
	io.Copy(io.Discard, resp.Body)
	return ack, true
}

// wireToIngest converts a wire submission to the pipeline's type. The
// HLC stamp and origin are currently informational on the client→server
// hop (client frames carry zeros; the committer stamps at ingest) but
// make node→node forwards lossless by construction.
func wireToIngest(ws wire.Submission) ingest.Submission {
	sub := ingest.Submission{
		Device:   ws.Device,
		Model:    ws.Model,
		Score:    ws.Score,
		Cooldown: make([]ingest.CooldownPoint, len(ws.Cooldown)),
	}
	for i, p := range ws.Cooldown {
		sub.Cooldown[i] = ingest.CooldownPoint{AtSeconds: p.AtSeconds, TempC: p.TempC}
	}
	return sub
}
