// Package hlc implements the hybrid logical clock the replicated crowd
// service stamps submissions with.
//
// A cluster of crowdd nodes needs a per-record timestamp that (a) is
// unique and totally ordered per node, (b) respects causality across
// nodes — a record applied after hearing from a peer always stamps later
// than anything that peer had stamped — and (c) stays close to physical
// time so operators can read it. Wall clocks alone give none of that
// (NTP steps backwards, VMs pause); pure logical clocks give no wall
// affinity. The hybrid clock is the standard compromise (Kulkarni et
// al.): a timestamp is a physical component (milliseconds) plus a
// logical counter that breaks ties within a millisecond and absorbs
// clock regressions.
//
// The packed wire form is a single uint64 — 48 bits of Unix
// milliseconds, 16 bits of logical counter — so a stamp orders correctly
// under plain integer comparison and frames cheaply into the WAL and the
// replication protocol. The codec is fuzzed (FuzzCodec) in
// `make fuzz-smoke`.
package hlc

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// wallBits is how many bits of Unix milliseconds a packed timestamp
// carries: 2^48 ms ≈ 8900 years of range.
const wallBits = 48

// MaxWall is the largest physical component a timestamp can carry.
const MaxWall = int64(1)<<wallBits - 1

// MaxLogical is the largest logical counter within one millisecond;
// overflow rolls the physical component forward one millisecond.
const MaxLogical = 1<<16 - 1

// EncodedSize is the byte length of an encoded timestamp.
const EncodedSize = 8

// MaxDrift is how far into the future a remote stamp may pull the clock
// before Update clamps it — the drift clamp that keeps one node with a
// broken wall clock from poisoning the whole cluster's stamps.
const MaxDrift = 500 * time.Millisecond

// Timestamp is one hybrid-logical-clock reading. The zero value means
// "unstamped". Ordering is lexicographic (Wall, Logical) — exactly the
// integer order of the packed form.
type Timestamp struct {
	// Wall is the physical component, Unix milliseconds.
	Wall int64
	// Logical breaks ties within a millisecond.
	Logical uint16
}

// IsZero reports whether t is the unstamped sentinel.
func (t Timestamp) IsZero() bool { return t.Wall == 0 && t.Logical == 0 }

// Compare returns -1, 0 or +1 as t is before, equal to or after u.
func (t Timestamp) Compare(u Timestamp) int {
	switch {
	case t.Wall < u.Wall:
		return -1
	case t.Wall > u.Wall:
		return 1
	case t.Logical < u.Logical:
		return -1
	case t.Logical > u.Logical:
		return 1
	}
	return 0
}

// Before reports whether t orders strictly before u.
func (t Timestamp) Before(u Timestamp) bool { return t.Compare(u) < 0 }

// Time returns the physical component as a time.Time (for display; the
// logical counter is dropped).
func (t Timestamp) Time() time.Time { return time.UnixMilli(t.Wall) }

// String renders the stamp as wall-ms.logical.
func (t Timestamp) String() string { return fmt.Sprintf("%d.%d", t.Wall, t.Logical) }

// Pack folds the stamp into one uint64 whose integer order equals the
// stamp order. The physical component is masked to 48 bits.
func (t Timestamp) Pack() uint64 {
	return uint64(t.Wall&MaxWall)<<16 | uint64(t.Logical)
}

// Unpack inverts Pack.
func Unpack(v uint64) Timestamp {
	return Timestamp{Wall: int64(v >> 16), Logical: uint16(v & MaxLogical)}
}

// AppendEncode appends the 8-byte big-endian wire form to dst. Big
// endian keeps byte order equal to stamp order.
func (t Timestamp) AppendEncode(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, t.Pack())
}

// Decode parses the 8-byte wire form.
func Decode(b []byte) (Timestamp, error) {
	if len(b) < EncodedSize {
		return Timestamp{}, fmt.Errorf("hlc: %d bytes, need %d", len(b), EncodedSize)
	}
	return Unpack(binary.BigEndian.Uint64(b)), nil
}

// Manual is a settable physical-clock source — the injectable seam that
// removes real time from the unit suite and lets fault-injection
// harnesses (internal/chaos) drive clock-skew scenarios byte-for-byte
// reproducibly. Plug Manual.Now into NewClock; every reading then comes
// from Set/Advance instead of the machine's wall clock. All methods are
// safe for concurrent use.
type Manual struct {
	mu sync.Mutex
	t  time.Time
}

// NewManual returns a manual physical clock frozen at start.
func NewManual(start time.Time) *Manual {
	return &Manual{t: start}
}

// Now returns the current manual reading. Pass this method to NewClock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

// Set moves the manual clock to t — backwards moves model NTP steps and
// VM pauses.
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	m.t = t
	m.mu.Unlock()
}

// Advance moves the manual clock forward by d and returns the new
// reading.
func (m *Manual) Advance(d time.Duration) time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.t = m.t.Add(d)
	return m.t
}

// Clock is one node's hybrid logical clock. All methods are safe for
// concurrent use. The zero value is not usable; use NewClock.
type Clock struct {
	mu      sync.Mutex
	last    Timestamp
	now     func() time.Time
	clamped uint64
}

// NewClock creates a clock reading physical time from now (time.Now when
// nil) and clamping remote stamps more than MaxDrift ahead of physical
// time.
func NewClock(now func() time.Time) *Clock {
	if now == nil {
		now = time.Now
	}
	return &Clock{now: now}
}

// tickLocked advances last to a stamp strictly after both the clock's
// history and the floor stamp, pinned to physical time when physical
// time is ahead, and returns it.
func (c *Clock) tickLocked(floor Timestamp) Timestamp {
	wall := c.now().UnixMilli()
	if c.last.Wall > wall {
		// Physical time stalled or regressed: stay on the logical track.
		wall = c.last.Wall
	}
	if floor.Wall > wall {
		wall = floor.Wall
	}
	// Within the winning millisecond the logical counter must exceed
	// whichever of the two stamps shares it.
	var lg uint32
	if wall == c.last.Wall && !c.last.IsZero() {
		lg = uint32(c.last.Logical) + 1
	}
	if wall == floor.Wall && !floor.IsZero() && uint32(floor.Logical)+1 > lg {
		lg = uint32(floor.Logical) + 1
	}
	next := Timestamp{Wall: wall, Logical: uint16(lg)}
	if lg > MaxLogical {
		// Counter exhausted within the millisecond: roll forward.
		next = Timestamp{Wall: wall + 1}
	}
	if next.IsZero() {
		// A physical clock sitting at the epoch (test doubles) must still
		// never issue the unstamped sentinel.
		next.Logical = 1
	}
	c.last = next
	return next
}

// Now returns the next send-event stamp: strictly greater than every
// stamp this clock has issued or observed, monotone even when the
// physical clock regresses.
func (c *Clock) Now() Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tickLocked(Timestamp{})
}

// Update merges a remote stamp (a receive event) and returns the next
// local stamp, strictly greater than both the local history and the
// remote stamp. A remote stamp further than the drift clamp ahead of
// physical time is clamped to physical+drift before merging — and
// counted — so one broken peer clock cannot run the cluster's stamps
// into the future.
func (c *Clock) Update(remote Timestamp) Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	limit := c.now().Add(MaxDrift).UnixMilli()
	if remote.Wall > limit {
		remote = Timestamp{Wall: limit, Logical: MaxLogical}
		c.clamped++
	}
	return c.tickLocked(remote)
}

// Last returns the most recent stamp issued or merged, without advancing
// the clock.
func (c *Clock) Last() Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Clamped returns how many remote stamps the drift clamp has truncated —
// nonzero means some peer's wall clock is running ahead by more than
// MaxDrift.
func (c *Clock) Clamped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clamped
}
