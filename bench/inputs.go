package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"accubench/internal/fleetsim"
	"accubench/internal/ingest"
	"accubench/internal/sim"
	"accubench/internal/soc"
	"accubench/internal/wire"
)

// Models is the five-handset mix every workload draws its devices from.
var Models = []string{"Nexus 5", "Nexus 6", "Nexus 6P", "LG G5", "Google Pixel"}

// poolPerModel is how many distinct simulated devices of each model the
// input pool holds. Submissions beyond the pool reuse a pooled device's
// measurements under a fresh device ID: simulating every uploaded device
// would cost more than the run it feeds (the fleet simulates a few
// thousand devices per second), while the server's cost per submission
// does not depend on whether two uploads carry equal scores.
const poolPerModel = 256

// Inputs generates a run's submissions from its seed.
type Inputs struct {
	seed int64
	pool []wire.Submission
}

// NewInputs simulates the seed's device pool with internal/fleetsim: the
// wild quick protocol on poolPerModel devices of each model at ambients
// drawn from 12–38 °C, as crowdload's fleet source does. Devices whose
// trace the server's validator would refuse (thermal-runaway outliers)
// are left out, so no generated submission is dropped as invalid.
func NewInputs(seed int64) (*Inputs, error) {
	specs := make([]fleetsim.CohortSpec, len(Models))
	for i, name := range Models {
		m, err := soc.ModelByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = fleetsim.CohortSpec{Model: m, Devices: poolPerModel}
	}
	fl, err := fleetsim.New(fleetsim.Config{Seed: seed, Cohorts: specs, AmbientLo: 12, AmbientHi: 38})
	if err != nil {
		return nil, err
	}
	var (
		mu   sync.Mutex
		subs []fleetsim.Submission
	)
	err = fl.RunWild(func(s fleetsim.Submission) {
		mu.Lock()
		subs = append(subs, s)
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	// RunWild emits in scheduling order; sort so the pool depends only on
	// the seed.
	sort.Slice(subs, func(i, j int) bool { return subs[i].Device < subs[j].Device })
	in := &Inputs{seed: seed}
	for _, s := range subs {
		ws := wire.Submission{Device: s.Device, Model: s.Model, Score: s.Score, Cooldown: make([]wire.Point, len(s.Cooldown))}
		for i, p := range s.Cooldown {
			ws.Cooldown[i] = wire.Point{AtSeconds: p.At.Seconds(), TempC: float64(p.Reading)}
		}
		if toIngest(ws).Validate() != nil {
			continue
		}
		in.pool = append(in.pool, ws)
	}
	order := sim.NewSource(seed, "bench:order").Perm(len(in.pool))
	shuffled := make([]wire.Submission, len(in.pool))
	for i, j := range order {
		shuffled[i] = in.pool[j]
	}
	in.pool = shuffled
	return in, nil
}

// Take returns n submissions cycling through the pool, each under a
// device ID unique to tag, so every submission of a run names its own
// device and can be looked up by it.
func (in *Inputs) Take(n int, tag string) []wire.Submission {
	out := make([]wire.Submission, n)
	for i := range out {
		out[i] = in.pool[i%len(in.pool)]
		out[i].Device = fmt.Sprintf("s%d-%s-%07d", in.seed, tag, i)
	}
	return out
}

// toIngest converts a wire submission to the JSON route's payload type.
func toIngest(ws wire.Submission) ingest.Submission {
	sub := ingest.Submission{Device: ws.Device, Model: ws.Model, Score: ws.Score, Cooldown: make([]ingest.CooldownPoint, len(ws.Cooldown))}
	for i, p := range ws.Cooldown {
		sub.Cooldown[i] = ingest.CooldownPoint{AtSeconds: p.AtSeconds, TempC: p.TempC}
	}
	return sub
}

// jsonBodies renders submissions as POST /v1/submissions bodies.
func jsonBodies(subs []wire.Submission) ([][]byte, error) {
	out := make([][]byte, len(subs))
	for i, s := range subs {
		b, err := json.Marshal(toIngest(s))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
