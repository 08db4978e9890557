package factcache

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"determinacy/internal/obs"
)

// loopbackRemote serves another cache's records, optionally mangled — the
// in-process stand-in for a peer node's /v1/cluster/cache endpoint.
type loopbackRemote struct {
	src     *Cache
	mangle  func([]byte) []byte
	mu      sync.Mutex
	fetches int
}

func (r *loopbackRemote) Fetch(keyID, routeKey string) ([]byte, bool) {
	r.mu.Lock()
	r.fetches++
	r.mu.Unlock()
	data, ok := r.src.ExportRecords(keyID)
	if !ok {
		return nil, false
	}
	if r.mangle != nil {
		data = r.mangle(data)
	}
	return data, ok
}

// TestRemoteWarmByteIdentity pins the L3 path: a cache with an empty
// local DB but a remote peer serves a warm hit whose replayed store,
// output, and stats are byte-identical to the peer's cold run — and the
// record is imported, so the next lookup hits locally without another
// fetch.
func TestRemoteWarmByteIdentity(t *testing.T) {
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})

	peer := mustOpen(t, t.TempDir())
	storeRun(t, peer, key, cold)

	remote := &loopbackRemote{src: peer}
	c := mustOpen(t, t.TempDir()).WithRemote(remote)
	hit, ok := c.Lookup(key)
	if !ok {
		t.Fatal("remote-backed lookup missed")
	}
	if got, want := renderStore(hit.Store), renderStore(cold.store); got != want {
		t.Fatalf("remote warm store diverges from cold run:\n got: %s\nwant: %s", got, want)
	}
	if string(hit.Output) != string(cold.output) {
		t.Fatalf("remote warm output diverges: %q vs %q", hit.Output, cold.output)
	}
	if fmt.Sprintf("%+v", hit.Stats) != fmt.Sprintf("%+v", cold.stats) {
		t.Fatalf("remote warm stats diverge: %+v vs %+v", hit.Stats, cold.stats)
	}
	st := c.Stats()
	if st.RemoteHits != 1 || st.Hits != 1 {
		t.Fatalf("stats after remote warm: %+v (want RemoteHits=1, Hits=1)", st)
	}

	// Records are now local: a fresh handle over the same dir hits with no
	// remote at all, and the remote-backed handle does not re-fetch.
	if _, ok := c.Lookup(key); !ok {
		t.Fatal("second lookup should hit")
	}
	if remote.fetches != 1 {
		t.Fatalf("remote fetched %d times, want 1 (records should be imported)", remote.fetches)
	}
	c2 := mustOpen(t, c.Dir())
	if _, ok := c2.Lookup(key); !ok {
		t.Fatal("imported records should serve a plain local hit")
	}
}

// TestRemoteInvalidPayloadsDiscarded drives every mangling a hostile or
// damaged peer can produce through the import validator: each is
// discarded with the right reason, nothing is imported, and the lookup
// stays a clean local miss.
func TestRemoteInvalidPayloadsDiscarded(t *testing.T) {
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	peer := mustOpen(t, t.TempDir())
	storeRun(t, peer, key, cold)
	foreign := otherKeyRecord(t, cold)

	cases := []struct {
		name, reason string
		mangle       func([]byte) []byte
	}{
		{"empty", "empty", func(b []byte) []byte { return nil }},
		{"garbage", "corrupt", func(b []byte) []byte { return []byte("HTTP error page, definitely not records") }},
		{"truncated", "corrupt", func(b []byte) []byte { return b[:len(b)/2] }},
		{"header-bitflip", "corrupt", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerSize+4] ^= 0x40 // inside the record's JSON header
			return c
		}},
		{"facts-bitflip", "corrupt", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-3] ^= 0x01 // inside the last fact
			return c
		}},
		{"version-skew", "version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 0x7f // future format version
			return c
		}},
		{"undecodable", "schema", func(b []byte) []byte {
			p := []byte("{not a record header}\n")
			return append(frameHeader(p), p...)
		}},
		{"other-key", "mismatch", func(b []byte) []byte { return foreign }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := obs.NewMetrics()
			c := mustOpen(t, t.TempDir()).WithMetrics(m).WithRemote(&loopbackRemote{src: peer, mangle: tc.mangle})
			if _, ok := c.Lookup(key); ok {
				t.Fatal("mangled remote payload must not produce a hit")
			}
			st := c.Stats()
			if st.RemoteInvalid != 1 {
				t.Fatalf("RemoteInvalid = %d, want 1 (stats: %+v)", st.RemoteInvalid, st)
			}
			series := fmt.Sprintf("factcache_remote_invalid_total{reason=%q}", tc.reason)
			if n := m.Counter(series).Value(); n != 1 {
				t.Fatalf("%s = %d, want 1", series, n)
			}
			if st.RemoteHits != 0 || st.Misses != 1 {
				t.Fatalf("mangled payload must count a miss, no remote hit: %+v", st)
			}
			// Nothing may have been imported: a clean handle still misses.
			c2 := mustOpen(t, c.Dir())
			if _, ok := c2.Lookup(key); ok {
				t.Fatal("mangled payload leaked records into the local DB")
			}
		})
	}
}

// TestRemoteMissIsQuiet pins that a remote without the key (and a nil
// remote) is just a miss — no invalidations, no imports, no counters.
func TestRemoteMissIsQuiet(t *testing.T) {
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	empty := mustOpen(t, t.TempDir())
	c := mustOpen(t, t.TempDir()).WithRemote(&loopbackRemote{src: empty})
	if _, ok := c.Lookup(key); ok {
		t.Fatal("empty remote produced a hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.RemoteHits != 0 || st.RemoteInvalid != 0 || st.Invalidations != 0 {
		t.Fatalf("remote miss should be quiet: %+v", st)
	}
}

// TestExportRecordsRefusesInvalid pins that a node never knowingly serves
// damaged records: export fails once the local entry is broken.
func TestExportRecordsRefusesInvalid(t *testing.T) {
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	c := mustOpen(t, t.TempDir())
	storeRun(t, c, key, cold)

	if _, ok := c.ExportRecords(key.ID()); !ok {
		t.Fatal("export of a healthy entry failed")
	}
	if _, ok := c.ExportRecords(""); ok {
		t.Fatal("export of the empty key succeeded")
	}
	if _, ok := c.ExportRecords(fmt.Sprintf("%064x", 0)); ok {
		t.Fatal("export of an absent key succeeded")
	}
	// A damaged record, or a valid one filed under the wrong key: export
	// must refuse both.
	raw, err := c.db.Raw(key.ID())
	if err != nil {
		t.Fatal(err)
	}
	path, _ := c.db.path(key.ID())
	raw[len(raw)-3] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.ExportRecords(key.ID()); ok {
		t.Fatal("export served a damaged record")
	}
	if err := os.WriteFile(path, otherKeyRecord(t, cold), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.ExportRecords(key.ID()); ok {
		t.Fatal("export served another key's record")
	}
}
