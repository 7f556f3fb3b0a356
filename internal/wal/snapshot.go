package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot file format. A snapshot is one self-validating file:
//
//	offset  0: magic "ACCUSNAP" (8 bytes)
//	offset  8: format version, uint32 LE (SnapshotVersion)
//	offset 12: reserved, uint32 LE (zero)
//	offset 16: covered sequence number, uint64 LE — every log record with
//	           seq <= this is reflected in the payload
//	offset 24: record count, uint64 LE
//	offset 32: payload length, uint64 LE
//	offset 40: CRC-32C of the payload, uint32 LE
//	offset 44: CRC-32C of bytes [0, 44), uint32 LE
//	offset 48: payload
//
// Both CRCs must validate before a snapshot is trusted; a half-written or
// bit-flipped snapshot is set aside (renamed *.snap.bad) in favor of the
// previous one (writes go through a temp file + rename, and the previous
// snapshot is retained until the next one lands). A snapshot in a format
// version this build does not read stops recovery instead. The header
// layout is locked by a golden test so version bumps are deliberate.

// snapshotMagic identifies a snapshot file.
const snapshotMagic = "ACCUSNAP"

// SnapshotVersion is the current snapshot format version.
const SnapshotVersion = 1

// SnapshotHeaderSize is the fixed header size in bytes.
const SnapshotHeaderSize = 48

// errSnapshotVersion marks a snapshot whose header validates but whose
// format version is not SnapshotVersion.
var errSnapshotVersion = errors.New("wal: snapshot format version")

// snapshotName renders the canonical file name for a snapshot covering
// the log through seq.
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSnapshotName inverts snapshotName.
func parseSnapshotName(name string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return 0, false
	}
	hex, ok = strings.CutSuffix(hex, ".snap")
	if !ok || len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// EncodeSnapshotHeader renders the 48-byte header for a snapshot covering
// the log through seq, holding count records serialized as payload.
func EncodeSnapshotHeader(seq, count uint64, payload []byte) []byte {
	hdr := make([]byte, SnapshotHeaderSize)
	copy(hdr[0:8], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], SnapshotVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], 0)
	binary.LittleEndian.PutUint64(hdr[16:24], seq)
	binary.LittleEndian.PutUint64(hdr[24:32], count)
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[40:44], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.Checksum(hdr[0:44], castagnoli))
	return hdr
}

// decodeSnapshotHeader validates the header and returns the covered seq,
// record count, payload length and payload CRC.
func decodeSnapshotHeader(hdr []byte) (seq, count, payloadLen uint64, payloadCRC uint32, err error) {
	if len(hdr) < SnapshotHeaderSize {
		return 0, 0, 0, 0, fmt.Errorf("wal: snapshot header truncated at %d bytes", len(hdr))
	}
	if string(hdr[0:8]) != snapshotMagic {
		return 0, 0, 0, 0, fmt.Errorf("wal: not a snapshot file (bad magic)")
	}
	if got := crc32.Checksum(hdr[0:44], castagnoli); got != binary.LittleEndian.Uint32(hdr[44:48]) {
		return 0, 0, 0, 0, fmt.Errorf("wal: snapshot header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != SnapshotVersion {
		return 0, 0, 0, 0, fmt.Errorf("%w %d, this build reads %d", errSnapshotVersion, v, SnapshotVersion)
	}
	seq = binary.LittleEndian.Uint64(hdr[16:24])
	count = binary.LittleEndian.Uint64(hdr[24:32])
	payloadLen = binary.LittleEndian.Uint64(hdr[32:40])
	payloadCRC = binary.LittleEndian.Uint32(hdr[40:44])
	return seq, count, payloadLen, payloadCRC, nil
}

// WriteSnapshot atomically writes a snapshot covering the log through seq
// into dir: temp file, fsync, rename, directory fsync. It returns the
// final path.
func WriteSnapshot(dir string, seq, count uint64, payload []byte) (string, error) {
	path := filepath.Join(dir, snapshotName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	hdr := EncodeSnapshotHeader(seq, count, payload)
	if _, err := f.Write(hdr); err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// ReadSnapshot reads and fully validates one snapshot file, returning the
// covered sequence number, record count and payload.
func ReadSnapshot(path string) (seq, count uint64, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	seq, count, payload, err = parseSnapshot(data)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return seq, count, payload, nil
}

// parseSnapshot validates one snapshot image end to end — header
// checksum, format version, payload length, payload checksum — and
// returns the covered sequence number, record count and payload (a
// subslice of data).
func parseSnapshot(data []byte) (seq, count uint64, payload []byte, err error) {
	seq, count, payloadLen, payloadCRC, err := decodeSnapshotHeader(data)
	if err != nil {
		return 0, 0, nil, err
	}
	if uint64(len(data)-SnapshotHeaderSize) != payloadLen {
		return 0, 0, nil, fmt.Errorf("wal: snapshot payload is %d bytes, header says %d",
			len(data)-SnapshotHeaderSize, payloadLen)
	}
	payload = data[SnapshotHeaderSize:]
	if crc32.Checksum(payload, castagnoli) != payloadCRC {
		return 0, 0, nil, errors.New("wal: snapshot payload checksum mismatch")
	}
	return seq, count, payload, nil
}

// listSnapshots returns the directory's snapshot files descending by
// covered sequence number.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type snap struct {
		path string
		seq  uint64
	}
	var snaps []snap
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSnapshotName(e.Name()); ok {
			snaps = append(snaps, snap{path: filepath.Join(dir, e.Name()), seq: seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	paths := make([]string, len(snaps))
	for i, s := range snaps {
		paths[i] = s.path
	}
	return paths, nil
}

// LatestSnapshot is recovery's snapshot search: it returns the newest
// snapshot in dir that validates end to end, ok false when none does.
// Each newer one that is torn, unreadable or fails a checksum is renamed
// aside to *.snap.bad, kept for inspection but no longer counted or
// deleted by PruneSnapshots. A snapshot in a format version this build
// does not read stops the search with that error instead: falling back
// past it would silently drop the records it holds.
func LatestSnapshot(dir string) (seq, count uint64, payload []byte, ok bool, err error) {
	paths, err := listSnapshots(dir)
	if err != nil {
		return 0, 0, nil, false, err
	}
	for _, path := range paths {
		seq, count, payload, rerr := ReadSnapshot(path)
		switch {
		case rerr == nil:
			return seq, count, payload, true, nil
		case errors.Is(rerr, errSnapshotVersion):
			return 0, 0, nil, false, rerr
		}
		// Corrupt or torn: set it aside and fall back to the previous one.
		if err := os.Rename(path, path+".bad"); err != nil {
			return 0, 0, nil, false, err
		}
		if err := syncDir(dir); err != nil {
			return 0, 0, nil, false, err
		}
	}
	return 0, 0, nil, false, nil
}

// PruneSnapshots removes all but the newest keep snapshot files (and any
// stale temp files). The previous snapshot is normally kept as the
// fallback should the newest turn out unreadable. It does not re-read
// them: LatestSnapshot set every damaged file newer than the one
// recovery used aside, and the persister writes each snapshot whole
// through a rename, so the newest keep files by name are the newest keep
// known to be valid — the one recovery used and those written since.
func PruneSnapshots(dir string, keep int) error {
	paths, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for i, path := range paths {
		if i < keep {
			continue
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap.tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}
