package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"accubench/internal/sim"
)

// sampledIDs is how many acknowledged device IDs a run looks up.
const sampledIDs = 100

// verifyCounts checks the daemons' ingest counters between two scrapes
// (one map per daemon, before and after a phase). On each daemon every
// received submission is accounted for and every stored one went
// through the WAL:
//
//	received = decode_errors + aborted + stored + wal_failed
//	stored   = wal_appended
//
// and, over all daemons, stored equals the submissions the load
// generator saw acknowledged.
func verifyCounts(before, after []map[string]float64, acked int) error {
	stored := 0.0
	for i := range before {
		d := func(k string) float64 { return after[i][k] - before[i][k] }
		recv, st := d("received_total"), d("stored_total")
		if sum := d("decode_errors_total") + d("aborted_total") + st + d("wal_failed_total"); recv != sum {
			return fmt.Errorf("daemon %d: received %v != decode_errors + aborted + stored + wal_failed = %v", i, recv, sum)
		}
		if wa := d("wal_appended_total"); st != wa {
			return fmt.Errorf("daemon %d: stored %v != wal_appended %v", i, st, wa)
		}
		stored += st
	}
	if stored != float64(acked) {
		return fmt.Errorf("stored %v submissions, %d acknowledged", stored, acked)
	}
	return nil
}

// scrape reads every daemon's counters.
func (e *runEnv) scrape(ds []*daemon) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(ds))
	for i, d := range ds {
		c, err := d.counters(e.ctx)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// sample picks up to sampledIDs of ids, by the run's seed.
func (e *runEnv) sample(ids []string) []string {
	if len(ids) <= sampledIDs {
		return ids
	}
	perm := sim.NewSource(e.cfg.Seed, "bench:sample").Perm(len(ids))
	out := make([]string, sampledIDs)
	for i := range out {
		out[i] = ids[perm[i]]
	}
	return out
}

// verifyDevices checks that every daemon answers 200 for each id.
func (e *runEnv) verifyDevices(ds []*daemon, ids []string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for _, d := range ds {
		for _, id := range ids {
			if _, err := get(e.ctx, client, d.url+"/v1/devices/"+url.PathEscape(id), http.StatusOK); err != nil {
				return err
			}
		}
	}
	return nil
}

// binsView fetches GET /v1/bins and returns, per model, the entry with
// its per-node fields (revision, age) removed, as comparable JSON.
func binsView(ctx context.Context, client *http.Client, base string) (map[string]string, error) {
	body, err := get(ctx, client, base+"/v1/bins", http.StatusOK)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Models []map[string]any `json:"models"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(resp.Models))
	for _, m := range resp.Models {
		if n, _ := m["bin_count"].(float64); n < 1 {
			continue
		}
		delete(m, "revision")
		delete(m, "age_ms")
		b, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprint(m["model"])] = string(b)
	}
	return out, nil
}

// waitBins polls until every daemon serves bins for every model and,
// with several daemons, the same bins on each.
func (e *runEnv) waitBins(ds []*daemon, timeout time.Duration) error {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		var views []map[string]string
		err := func() error {
			for _, d := range ds {
				v, err := binsView(e.ctx, client, d.url)
				if err != nil {
					return err
				}
				for _, m := range Models {
					if _, ok := v[m]; !ok {
						return fmt.Errorf("%s serves no bins for %s", d.url, m)
					}
				}
				views = append(views, v)
			}
			for _, v := range views[1:] {
				for _, m := range Models {
					if v[m] != views[0][m] {
						return fmt.Errorf("nodes disagree on %s bins: %s vs %s", m, views[0][m], v[m])
					}
				}
			}
			return nil
		}()
		if err == nil || time.Now().After(deadline) || e.ctx.Err() != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitConverged polls GET /v1/digest on every daemon until all return
// the same non-empty digests, and returns how long that took.
func (e *runEnv) waitConverged(ds []*daemon, timeout time.Duration) (time.Duration, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	t0 := time.Now()
	for {
		var first []byte
		err := func() error {
			for _, d := range ds {
				body, err := get(e.ctx, client, d.url+"/v1/digest", http.StatusOK)
				if err != nil {
					return err
				}
				if first == nil {
					first = body
				} else if !bytes.Equal(first, body) {
					return fmt.Errorf("digests differ: %s vs %s", first, body)
				}
			}
			if len(bytes.TrimSpace(first)) <= 2 {
				return fmt.Errorf("empty digest")
			}
			return nil
		}()
		if err == nil || time.Since(t0) > timeout || e.ctx.Err() != nil {
			return time.Since(t0), err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verifyIngest runs the correctness checks every ingest phase ends
// with: counter conservation against the acknowledged count, a sample
// of acknowledged devices readable on every daemon, and bins for every
// model.
func (e *runEnv) verifyIngest(name string, ds []*daemon, p phase) {
	after, err := e.scrape(ds)
	if err == nil {
		err = verifyCounts(p.before, after, len(p.acked))
	}
	e.check(name+".counters", err)
	e.check(name+".sampled_ids", e.verifyDevices(ds, e.sample(p.acked)))
	e.check(name+".bins", e.waitBins(ds, 30*time.Second))
}
