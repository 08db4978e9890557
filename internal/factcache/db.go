package factcache

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// On-disk record framing. Every file in the DB carries the same header so
// a reader can always tell a valid record from a truncated or bit-flipped
// one:
//
//	magic "DFC1" (4) | version (2, LE) | crc32 (4, LE) | len (4, LE) | payload
//
// The CRC covers the payload only; the fixed-width fields are validated
// structurally. Any mismatch surfaces as ErrCorrupt (or ErrVersion for a
// clean header from a different format generation), never as a panic or a
// silently wrong payload.
const (
	dbMagic = "DFC1"
	// Version is the on-disk format version. Bump it on any wire change;
	// old files then read back as ErrVersion and are dropped like corrupt
	// ones, falling back to re-analysis.
	Version = 2

	headerSize = 4 + 2 + 4 + 4
)

// ErrCorrupt reports a structurally invalid record: bad magic, impossible
// lengths, truncation, CRC mismatch, or a record filed under another key.
var ErrCorrupt = errors.New("factcache: corrupt record")

// ErrVersion reports a record written by a different format version.
var ErrVersion = errors.New("factcache: format version mismatch")

// DB is the fact database's storage layer: one framed record per key id,
// at a path derived from the id. Writes are atomic (temp file + rename),
// so readers never observe a half-written record through the normal API —
// torn files can only come from external corruption, which reads detect
// and report.
type DB struct {
	dir string
	// putMu serializes Put's validate-or-rewrite check so that when
	// several goroutines repair the same damaged record, exactly one write
	// happens: the first put rewrites, the rest observe the now-valid file
	// and leave it. Writes are rare (stores only), so one mutex for the
	// whole DB costs nothing on the read path.
	putMu sync.Mutex
}

// OpenDB creates or opens the database rooted at dir.
func OpenDB(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("factcache: open db: %w", err)
	}
	return &DB{dir: dir}, nil
}

// Dir reports the database root.
func (db *DB) Dir() string { return db.dir }

// path maps a key id to its record file. Ids are hex sha256 digests; any
// other string (a peer's query parameter, say) is rejected before it can
// name a path.
func (db *DB) path(id string) (string, error) {
	if len(id) != 64 {
		return "", fmt.Errorf("%w: malformed key id %q", ErrCorrupt, id)
	}
	if _, err := hex.DecodeString(id); err != nil {
		return "", fmt.Errorf("%w: malformed key id %q", ErrCorrupt, id)
	}
	return filepath.Join(db.dir, id[:2], id), nil
}

// frameHeader returns the record header that precedes payload on disk.
func frameHeader(payload []byte) []byte {
	b := make([]byte, headerSize)
	copy(b, dbMagic)
	binary.LittleEndian.PutUint16(b[4:], Version)
	binary.LittleEndian.PutUint32(b[6:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(b[10:], uint32(len(payload)))
	return b
}

// unframe validates a record and returns its payload.
func unframe(b []byte) ([]byte, error) {
	if len(b) < headerSize || string(b[:4]) != dbMagic {
		return nil, ErrCorrupt
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != Version {
		return nil, fmt.Errorf("%w: file has v%d, reader is v%d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint32(b[10:])
	if uint64(len(b)) != uint64(headerSize)+uint64(n) {
		return nil, fmt.Errorf("%w: payload length %d, file holds %d", ErrCorrupt, n, len(b)-headerSize)
	}
	payload := b[headerSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[6:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// atomicWrite replaces path with the concatenated parts via a
// same-directory temp file and rename, so concurrent readers see either
// the old record or the new one, never a prefix.
func atomicWrite(path string, parts ...[]byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	for _, data := range parts {
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Put stores payload as the record for id. created reports whether a
// write happened: an existing file counts as present only if it validates
// and holds exactly this payload, so a corrupt, truncated or foreign
// record is rewritten — one Store always repairs whatever external damage
// reads have detected.
func (db *DB) Put(id string, payload []byte) (created bool, err error) {
	path, err := db.path(id)
	if err != nil {
		return false, err
	}
	db.putMu.Lock()
	defer db.putMu.Unlock()
	if b, rerr := os.ReadFile(path); rerr == nil {
		if got, uerr := unframe(b); uerr == nil && bytes.Equal(got, payload) {
			return false, nil
		}
	}
	if err := atomicWrite(path, frameHeader(payload), payload); err != nil {
		return false, fmt.Errorf("factcache: put record: %w", err)
	}
	return true, nil
}

// Get reads and validates the record for id. A missing record returns an
// fs.ErrNotExist error; an invalid one returns ErrCorrupt/ErrVersion.
func (db *DB) Get(id string) ([]byte, error) {
	b, err := db.Raw(id)
	if err != nil {
		return nil, err
	}
	return unframe(b)
}

// Raw reads a record's framed bytes exactly as stored, with no
// validation. The cluster's remote cache endpoint serves these, so every
// defect — a bit flip on this node's disk, corruption in transit, version
// skew between nodes — reaches the importing node's own validation and is
// discarded there, counted by reason.
func (db *DB) Raw(id string) ([]byte, error) {
	path, err := db.path(id)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// Remove deletes a record (no-op if absent); used to clear records that
// failed validation so the next lookup is a clean miss.
func (db *DB) Remove(id string) {
	if path, err := db.path(id); err == nil {
		os.Remove(path)
	}
}

// IsNotExist reports whether err is a plain absence (as opposed to
// corruption): the caller treats it as a quiet miss.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
