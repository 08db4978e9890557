// Package factcache memoizes completed determinacy analyses in an on-disk
// fact database — the L2 layer under the front-end compile cache
// (internal/batch/progcache, L1).
//
// A completed run is stored as one CRC-framed record per Key, at a path
// derived from the key id. The record's payload is a one-line JSON header
// (key id, console output, run statistics, handler count, occurrence cap)
// followed by the facts in the facts.Store.Encode wire form. Reading a
// record replays the facts through the ordinary Store.Record path, so a
// warm hit is byte-identical to re-running the analysis — the property
// internal/diffcheck's memoization oracle checks. A small in-memory LRU
// keeps decoded records (facts.Frozen); a repeat hit in one process thaws
// a copy without parsing JSON.
//
// Eligibility is decided by callers (only they see partiality): partial,
// degraded, errored, or eval-containing runs must NEVER populate the
// cache — a cached entry asserts "this is exactly what a fresh run
// produces", which a truncated run cannot. The engine is deliberately
// absent from the key: both execution engines are byte-identical by
// contract, so warm hits serve across engines.
package factcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/obs"
)

// Schema versions the logical cache content (key derivation, record
// shape, and the analysis semantics that produced the facts) independently
// of the storage framing: a Schema bump changes every key, so old entries
// become unreachable rather than misread. 3: native models read the
// contents of arrays they convert, and natives follow ES5 more closely.
const Schema = 3

// DefaultMemEntries bounds the in-memory LRU of decoded records; disk
// entries are unbounded.
const DefaultMemEntries = 64

// MaxOutputBytes caps the console output a cached run may carry; runs
// printing more are not cached (skip reason "output-cap").
const MaxOutputBytes = 1 << 20

// Capture tees a run's console output for Store. It stops buffering past
// MaxOutputBytes, so a printing loop can't balloon the fact DB.
type Capture struct {
	b        []byte
	overflow bool
}

// Write buffers p while the capture stays within MaxOutputBytes; it never
// fails.
func (w *Capture) Write(p []byte) (int, error) {
	if len(w.b)+len(p) > MaxOutputBytes {
		w.overflow = true
	} else {
		w.b = append(w.b, p...)
	}
	return len(p), nil
}

// Sig is the canonical signature of every analysis option that shapes
// facts, statistics or output. Sinks (Out, Tracer, Metrics), scheduling
// (Workers, Deadline, Ctx) and the Engine (byte-identical by contract) are
// deliberately absent.
type Sig struct {
	Seed                  uint64     `json:"seed"`
	NowBits               uint64     `json:"now"`
	Inputs                []InputSig `json:"inputs,omitempty"`
	WithDOM               bool       `json:"dom,omitempty"`
	DetDOM                bool       `json:"detdom,omitempty"`
	RunHandlers           int        `json:"handlers,omitempty"`
	MaxCFDepth            int        `json:"cfdepth,omitempty"`
	MaxFlushes            int        `json:"flushes,omitempty"`
	MaxSteps              int        `json:"steps,omitempty"`
	DisableCounterfactual bool       `json:"nocf,omitempty"`
	ImmediateTaint        bool       `json:"taint,omitempty"`
	MuJSLocals            bool       `json:"mujs,omitempty"`
}

// InputSig is one __input binding in canonical form.
type InputSig struct {
	Name    string `json:"name"`
	Kind    int    `json:"kind"`
	NumBits uint64 `json:"num,omitempty"`
	Str     string `json:"str,omitempty"`
	Bool    bool   `json:"bool,omitempty"`
}

// NumSigBits canonicalizes a float for signature purposes (NaN bit
// patterns collapse to one).
func NumSigBits(f float64) uint64 {
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// canon serializes the signature deterministically (inputs sorted by
// name).
func (s Sig) canon() []byte {
	sort.Slice(s.Inputs, func(i, j int) bool { return s.Inputs[i].Name < s.Inputs[j].Name })
	b, err := json.Marshal(s)
	if err != nil {
		// Sig is a closed struct of scalars; Marshal cannot fail.
		panic(err)
	}
	return b
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// Key addresses one (program, options) pair in the cache.
type Key struct {
	id    string // full address: schema + file + source hash + options
	route string // bare source hash: the cluster's content-routing key
}

// KeyFor derives the cache key for a program and its options signature.
func KeyFor(file, source string, sig Sig) Key {
	sh := hashString(source)
	return Key{
		id:    hashString(fmt.Sprintf("key\x00%d\x00%s\x00%s\x00%s", Schema, file, sh, sig.canon())),
		route: sh,
	}
}

// ID reports the full cache address (diagnostics, tests).
func (k Key) ID() string { return k.id }

// RouteKey reports the bare source hash — the key a sharded cluster
// routes analysis on, so a remote lookup lands on the node whose disk
// holds the facts.
func (k Key) RouteKey() string { return k.route }

// Zero reports whether the key is the zero value (no cache in play).
func (k Key) Zero() bool { return k.id == "" }

// Hit is a warm result: everything a cold run would have produced.
type Hit struct {
	// Store is a fresh copy of the cached facts; the caller owns it.
	Store *facts.Store
	// Output is the run's console bytes.
	Output []byte
	// Stats are the cold run's statistics.
	Stats core.Stats
	// HandlersRan counts the DOM handlers the cold run drove.
	HandlersRan int
}

// CacheStats is a point-in-time snapshot of cache activity, for tests and
// diagnostics; the live series go to the attached metrics registry.
// Stores counts records written: a store that finds an identical valid
// record already in place writes nothing and is not counted.
type CacheStats struct {
	Hits, Misses, Stores      int64
	Invalidations, Skips      int64
	RemoteHits, RemoteInvalid int64
}

// header is the first line of a record's payload: everything a warm hit
// replays besides the facts themselves.
type header struct {
	Key         string     `json:"key"`
	Output      []byte     `json:"output,omitempty"`
	Stats       core.Stats `json:"stats"`
	HandlersRan int        `json:"handlers,omitempty"`
	MaxSeq      int        `json:"maxseq"`
}

// entry is a decoded record as the memory LRU keeps it; every hit thaws
// its own store from the frozen facts.
type entry struct {
	key   string
	hdr   header
	facts *facts.Frozen
}

var (
	// errSchema reports a record whose frame validates but whose payload
	// does not decode.
	errSchema = errors.New("factcache: undecodable record")
	// errMismatch reports a valid record for another key — one copied or
	// renamed under the wrong path, or a peer answering for a different
	// program. It reads as corruption.
	errMismatch = fmt.Errorf("%w: record belongs to another key", ErrCorrupt)
)

// encodeRecord renders a record payload: the JSON header line, then the
// facts in the facts wire form.
func encodeRecord(h *header, store *facts.Store) ([]byte, error) {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(h); err != nil {
		return nil, fmt.Errorf("factcache: encode header: %w", err)
	}
	if err := store.Encode(&b); err != nil {
		return nil, fmt.Errorf("factcache: encode facts: %w", err)
	}
	return b.Bytes(), nil
}

// decodeRecord parses a record payload and checks that it belongs to
// keyID.
func decodeRecord(payload []byte, keyID string) (*header, *facts.Store, error) {
	line, body, ok := bytes.Cut(payload, []byte{'\n'})
	hdr := &header{}
	if !ok || json.Unmarshal(line, hdr) != nil {
		return nil, nil, errSchema
	}
	if hdr.Key != keyID {
		return nil, nil, errMismatch
	}
	store := facts.NewStore()
	store.MaxSeq = hdr.MaxSeq
	if err := store.Load(bytes.NewReader(body)); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errSchema, err)
	}
	return hdr, store, nil
}

// reasonFor classifies a read or decode error for the invalidation series.
func reasonFor(err error) string {
	switch {
	case errors.Is(err, ErrVersion):
		return "version"
	case errors.Is(err, errSchema):
		return "schema"
	default:
		return "corrupt"
	}
}

// Cache is the fact cache: an on-disk DB plus a small in-memory LRU of
// decoded entries. Safe for concurrent use.
type Cache struct {
	db *DB

	mu     sync.Mutex
	mem    map[string]*list.Element // values are *entry
	lru    *list.List               // front = most recently used
	maxMem int

	remote  Remote // optional L3 tier consulted on local miss
	metrics *obs.Metrics
	stats   CacheStats
}

// Open creates or opens a fact cache rooted at dir.
func Open(dir string) (*Cache, error) {
	db, err := OpenDB(dir)
	if err != nil {
		return nil, err
	}
	return &Cache{
		db:     db,
		mem:    map[string]*list.Element{},
		lru:    list.New(),
		maxMem: DefaultMemEntries,
	}, nil
}

// WithMetrics attaches a metrics registry; the cache then maintains
// factcache_* series live. Returns the cache for chaining.
func (c *Cache) WithMetrics(m *obs.Metrics) *Cache {
	c.mu.Lock()
	c.metrics = m
	c.mu.Unlock()
	return c
}

// Dir reports the cache's database root.
func (c *Cache) Dir() string { return c.db.Dir() }

// Stats snapshots cumulative cache activity.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// count bumps a local stat and the matching metrics series.
func (c *Cache) count(stat *int64, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	*stat++
	if c.metrics != nil {
		c.metrics.Counter(name).Inc()
	}
}

// Skip records that a run was deliberately not cached and why ("partial",
// "error", "eval", "output-cap"). The eligibility decision lives with
// callers; the taxonomy lives here so every layer shares one series.
func (c *Cache) Skip(reason string) {
	c.count(&c.stats.Skips, fmt.Sprintf("factcache_skips_total{reason=%q}", reason))
}

// invalidate drops a broken record so the next lookup is a clean miss,
// and publishes the reason.
func (c *Cache) invalidate(key Key, reason string) {
	c.db.Remove(key.id)
	c.mu.Lock()
	if el, ok := c.mem[key.id]; ok {
		c.lru.Remove(el)
		delete(c.mem, key.id)
	}
	c.mu.Unlock()
	c.count(&c.stats.Invalidations, fmt.Sprintf("factcache_invalidations_total{reason=%q}", reason))
}

// Lookup serves a warm result for key in a fresh fact store. ok is false
// on a miss; any invalid on-disk state (truncation, bit flips, version
// skew, a record filed under the wrong key) is invalidated and reported as
// a miss — never an error, never a wrong result.
func (c *Cache) Lookup(key Key) (*Hit, bool) {
	if key.Zero() {
		return nil, false
	}
	hdr, store, ok := c.load(key)
	if !ok {
		hdr, store, ok = c.loadRemote(key)
	}
	if !ok {
		c.count(&c.stats.Misses, "factcache_misses_total")
		return nil, false
	}
	c.count(&c.stats.Hits, "factcache_hits_total")
	stats := hdr.Stats
	stats.FlushReasons = maps.Clone(stats.FlushReasons)
	return &Hit{
		Store:       store,
		Output:      bytes.Clone(hdr.Output),
		Stats:       stats,
		HandlersRan: hdr.HandlersRan,
	}, true
}

// load fetches the record for key, from the memory LRU or disk, with a
// store the caller owns. Absence is a quiet miss; invalid state
// invalidates first.
func (c *Cache) load(key Key) (*header, *facts.Store, bool) {
	c.mu.Lock()
	if el, ok := c.mem[key.id]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*entry)
		c.mu.Unlock()
		return &e.hdr, e.facts.Thaw(), true
	}
	c.mu.Unlock()

	payload, err := c.db.Get(key.id)
	if err != nil {
		if !IsNotExist(err) {
			c.invalidate(key, reasonFor(err))
		}
		return nil, nil, false
	}
	hdr, store, err := decodeRecord(payload, key.id)
	if err != nil {
		c.invalidate(key, reasonFor(err))
		return nil, nil, false
	}
	c.remember(&entry{key: key.id, hdr: *hdr, facts: store.Freeze()})
	return hdr, store, true
}

// remember inserts a decoded entry into the memory LRU.
func (c *Cache) remember(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.mem[e.key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.mem[e.key] = c.lru.PushFront(e)
	for len(c.mem) > c.maxMem {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.mem, back.Value.(*entry).key)
	}
	if c.metrics != nil {
		c.metrics.Gauge("factcache_mem_entries").Set(float64(len(c.mem)))
	}
}

// Store persists a COMPLETED run — the caller vouches that it ran to the
// end (not partial, not degraded, no runtime eval) and that store/output/
// stats are exactly what any fresh run with the same key produces. A run
// whose output overflowed the capture is skipped as "output-cap".
func (c *Cache) Store(key Key, store *facts.Store, output *Capture, stats core.Stats, handlersRan int) error {
	if key.Zero() {
		return nil
	}
	if output.overflow {
		c.Skip("output-cap")
		return nil
	}
	hdr := header{
		Key: key.id, Output: bytes.Clone(output.b),
		Stats: stats, HandlersRan: handlersRan, MaxSeq: store.MaxSeq,
	}
	hdr.Stats.FlushReasons = maps.Clone(stats.FlushReasons)
	payload, err := encodeRecord(&hdr, store)
	if err != nil {
		return err
	}
	created, err := c.db.Put(key.id, payload)
	if err != nil {
		return err
	}
	c.remember(&entry{key: key.id, hdr: hdr, facts: store.Freeze()})
	if created {
		c.count(&c.stats.Stores, "factcache_stores_total")
	}
	return nil
}
