package factcache

import (
	"errors"
	"fmt"

	"determinacy/internal/facts"
)

// Remote is a remote fact-record source — the L3 tier behind the local
// disk. On a local miss, Lookup consults it for the raw framed record of
// a key (exactly the bytes ExportRecords serves on the owning node).
// Implementations return ok=false for any miss or failure; they are
// expected to be fallible and slow, never authoritative — every returned
// byte is re-validated here (framing, CRC, schema, the embedded key id)
// before anything is imported, so a corrupt, truncated, bit-flipped,
// version-skewed or foreign remote payload is discarded (counted by reason
// in factcache_remote_invalid_total) and the caller just analyzes locally.
//
// internal/cluster's Router implements Remote structurally (owner lookup
// on the ring + hedged HTTP fetch) and additionally collapses concurrent
// fetches for one key into a single round trip, so this layer does not
// singleflight again.
type Remote interface {
	// Fetch returns the framed record for keyID. routeKey is the bare
	// source hash the cluster shards analysis on — the implementation
	// routes the lookup with it (the node that analyzed a program, hence
	// holds its facts, is the owner of its source hash, not of the
	// composite key id).
	Fetch(keyID, routeKey string) ([]byte, bool)
}

// WithRemote attaches a remote record source consulted on local miss.
// Returns the cache for chaining.
func (c *Cache) WithRemote(r Remote) *Cache {
	c.mu.Lock()
	c.remote = r
	c.mu.Unlock()
	return c
}

// ExportRecords serves this cache's record for a full key id as one raw
// frame, bytes exactly as stored on disk (no re-framing — damage that
// slips past this check travels as-is and fails the importer's
// validation, which is the property the chaos campaign leans on). ok is
// false when the key has no valid local record.
func (c *Cache) ExportRecords(keyID string) ([]byte, bool) {
	raw, err := c.db.Raw(keyID)
	if err != nil {
		return nil, false
	}
	payload, err := unframe(raw)
	if err != nil {
		return nil, false
	}
	if _, _, err := decodeRecord(payload, keyID); err != nil {
		return nil, false
	}
	return raw, true
}

// loadRemote consults the remote tier for key and, when the returned frame
// validates end to end, imports it into the local DB (Put re-frames it,
// which also self-repairs local damage that caused the miss) and the
// memory LRU.
func (c *Cache) loadRemote(key Key) (*header, *facts.Store, bool) {
	c.mu.Lock()
	remote := c.remote
	c.mu.Unlock()
	if remote == nil {
		return nil, nil, false
	}
	data, ok := remote.Fetch(key.id, key.route)
	if !ok {
		return nil, nil, false
	}
	reject := func(reason string) (*header, *facts.Store, bool) {
		c.count(&c.stats.RemoteInvalid, fmt.Sprintf("factcache_remote_invalid_total{reason=%q}", reason))
		return nil, nil, false
	}
	if len(data) == 0 {
		return reject("empty")
	}
	payload, err := unframe(data)
	if err != nil {
		return reject(reasonFor(err))
	}
	hdr, store, err := decodeRecord(payload, key.id)
	if errors.Is(err, errMismatch) {
		return reject("mismatch")
	} else if err != nil {
		return reject(reasonFor(err))
	}
	if _, err := c.db.Put(key.id, payload); err != nil {
		return nil, nil, false
	}
	c.remember(&entry{key: key.id, hdr: *hdr, facts: store.Freeze()})
	c.count(&c.stats.RemoteHits, "factcache_remote_hits_total")
	return hdr, store, true
}
