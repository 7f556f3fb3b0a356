package hlc

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The whole suite runs on the Manual physical clock — no test reads the
// machine's wall clock, so every assertion is exact and reproducible.

func TestNowStrictlyMonotonicWithinMillisecond(t *testing.T) {
	phys := NewManual(time.UnixMilli(1_000_000))
	c := NewClock(phys.Now)
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		next := c.Now()
		if !prev.Before(next) {
			t.Fatalf("stamp %d: %v not strictly after %v", i, next, prev)
		}
		if next.Wall != 1_000_000 {
			t.Fatalf("stamp %d left the frozen millisecond: %v", i, next)
		}
		prev = next
	}
}

func TestNowSurvivesPhysicalRegression(t *testing.T) {
	phys := NewManual(time.UnixMilli(5_000_000))
	c := NewClock(phys.Now)
	before := c.Now()
	// NTP steps the wall clock back a full minute.
	phys.Set(time.UnixMilli(5_000_000 - 60_000))
	after := c.Now()
	if !before.Before(after) {
		t.Fatalf("regressed wall clock broke monotonicity: %v then %v", before, after)
	}
	if after.Wall != before.Wall {
		t.Fatalf("regressed clock changed the wall component: %v -> %v", before, after)
	}
	// Once physical time catches back up, stamps track it again.
	phys.Set(time.UnixMilli(5_000_100))
	caught := c.Now()
	if caught.Wall != 5_000_100 || caught.Logical != 0 {
		t.Fatalf("clock did not rejoin physical time: %v", caught)
	}
}

func TestManualAdvance(t *testing.T) {
	phys := NewManual(time.UnixMilli(9_000_000))
	c := NewClock(phys.Now)
	first := c.Now()
	if got := phys.Advance(250 * time.Millisecond); got != time.UnixMilli(9_000_250) {
		t.Fatalf("Advance returned %v, want 9000250ms", got)
	}
	second := c.Now()
	if second.Wall != 9_000_250 || second.Logical != 0 {
		t.Fatalf("stamp after Advance = %v, want 9000250.0", second)
	}
	if !first.Before(second) {
		t.Fatalf("advance broke ordering: %v then %v", first, second)
	}
}

func TestUpdateMergesRemoteStamp(t *testing.T) {
	phys := NewManual(time.UnixMilli(2_000_000))
	c := NewClock(phys.Now)
	remote := Timestamp{Wall: 2_000_050, Logical: 7}
	got := c.Update(remote)
	if !remote.Before(got) {
		t.Fatalf("Update(%v) = %v, not strictly after the remote stamp", remote, got)
	}
	if got.Wall != remote.Wall || got.Logical != 8 {
		t.Fatalf("Update(%v) = %v, want logical bump within the remote millisecond", remote, got)
	}
	// Local sends keep ordering after the merge.
	next := c.Now()
	if !got.Before(next) {
		t.Fatalf("Now after Update: %v not after %v", next, got)
	}
}

// TestUpdateClampsRunawayRemote is exact on the manual clock: the
// runaway remote is truncated to (physical + drift, MaxLogical), and
// merging that saturated stamp rolls the wall forward exactly one
// millisecond.
func TestUpdateClampsRunawayRemote(t *testing.T) {
	phys := NewManual(time.UnixMilli(3_000_000))
	c := NewClock(phys.Now)
	remote := Timestamp{Wall: 3_000_000 + 3_600_000, Logical: 0} // one hour ahead
	got := c.Update(remote)
	want := Timestamp{Wall: 3_000_501, Logical: 0}
	if got != want {
		t.Fatalf("Update(runaway remote) = %v, want exactly %v (drift limit wall 3000500, logical saturated)", got, want)
	}
	if c.Clamped() != 1 {
		t.Fatalf("Clamped() = %d, want 1", c.Clamped())
	}
	// A remote inside the drift bound is not clamped and merges exactly.
	got = c.Update(Timestamp{Wall: 3_000_100, Logical: 0})
	if c.Clamped() != 1 {
		t.Fatalf("Clamped() = %d after an in-bound remote, want 1", c.Clamped())
	}
	if (got != Timestamp{Wall: 3_000_501, Logical: 1}) {
		t.Fatalf("in-bound merge = %v, want 3000501.1 (history already past the remote)", got)
	}
}

func TestLogicalOverflowRollsWallForward(t *testing.T) {
	phys := NewManual(time.UnixMilli(4_000_000))
	c := NewClock(phys.Now)
	got := c.Update(Timestamp{Wall: 4_000_000, Logical: MaxLogical})
	if got.Wall != 4_000_001 || got.Logical != 0 {
		t.Fatalf("logical overflow produced %v, want wall rolled to 4000001.0", got)
	}
}

func TestConcurrentStampsAreUnique(t *testing.T) {
	// A frozen manual clock is the worst case: every stamp competes for
	// the same millisecond, so uniqueness rides entirely on the logical
	// counter discipline.
	phys := NewManual(time.UnixMilli(6_000_000))
	c := NewClock(phys.Now)
	const goroutines, per = 8, 500
	stamps := make([][]Timestamp, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Timestamp, per)
			for i := range out {
				out[i] = c.Now()
			}
			stamps[g] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[Timestamp]bool, goroutines*per)
	for _, batch := range stamps {
		prev := Timestamp{}
		for _, ts := range batch {
			if ts.IsZero() {
				t.Fatal("clock issued the unstamped sentinel")
			}
			if seen[ts] {
				t.Fatalf("duplicate stamp %v", ts)
			}
			seen[ts] = true
			if !prev.Before(ts) {
				t.Fatalf("per-goroutine order violated: %v then %v", prev, ts)
			}
			prev = ts
		}
	}
}

func TestPackOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		a := Timestamp{Wall: rng.Int63n(MaxWall + 1), Logical: uint16(rng.Intn(MaxLogical + 1))}
		b := Timestamp{Wall: rng.Int63n(MaxWall + 1), Logical: uint16(rng.Intn(MaxLogical + 1))}
		packOrder := 0
		switch {
		case a.Pack() < b.Pack():
			packOrder = -1
		case a.Pack() > b.Pack():
			packOrder = 1
		}
		if packOrder != a.Compare(b) {
			t.Fatalf("pack order %d != Compare %d for %v vs %v", packOrder, a.Compare(b), a, b)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, ts := range []Timestamp{
		{},
		{Wall: 1, Logical: 0},
		{Wall: 0, Logical: 1},
		{Wall: MaxWall, Logical: MaxLogical},
		{Wall: 1_700_000_000_000, Logical: 42}, // a plausible modern wall reading
	} {
		b := ts.AppendEncode(nil)
		if len(b) != EncodedSize {
			t.Fatalf("encoded %v into %d bytes, want %d", ts, len(b), EncodedSize)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%v): %v", ts, err)
		}
		if got != ts {
			t.Fatalf("round trip %v -> %v", ts, got)
		}
	}
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("Decode of a short buffer did not fail")
	}
}

// FuzzCodec asserts the wire codec is a bijection on the packed domain:
// any 8 bytes decode to a stamp that re-encodes to the same bytes, and
// encode/decode round-trips every stamp. Wired into `make fuzz-smoke`.
func FuzzCodec(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1) << 16)
	f.Add(^uint64(0))
	f.Add(uint64(1_700_000_000_000) << 16)
	f.Fuzz(func(t *testing.T, packed uint64) {
		ts := Unpack(packed)
		if ts.Pack() != packed {
			t.Fatalf("Unpack(%d).Pack() = %d", packed, ts.Pack())
		}
		b := ts.AppendEncode(nil)
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != ts {
			t.Fatalf("wire round trip %v -> %v", ts, got)
		}
		// Order preservation: the packed integer order is the stamp order.
		other := Unpack(packed ^ 0xff)
		if (ts.Pack() < other.Pack()) != ts.Before(other) {
			t.Fatalf("pack order diverges from Compare for %v vs %v", ts, other)
		}
	})
}
