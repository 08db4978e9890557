package factcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
	"determinacy/internal/obs"
)

// testSrc exercises functions (calling contexts), a loop (occurrence
// sequences), indeterminacy (Math.random) and a NaN value (the NumS wire
// path).
const testSrc = `
function add(a, b) { return a + b; }
function mul(a, b) { return a * b; }
var t = 0;
for (var i = 0; i < 5; i = i + 1) { t = add(t, mul(i, 2)); }
var r = Math.random();
var q = add(r, 1);
var nan = 0 / 0;
console.log(t);
console.log(nan);
`

type coldRun struct {
	mod    *ir.Module
	store  *facts.Store
	output []byte
	stats  core.Stats
}

// runCold executes testSrc-style source under the instrumented semantics,
// as a caching layer would.
func runCold(t *testing.T, src string, seed uint64) *coldRun {
	t.Helper()
	mod, err := ir.Compile("cache.js", src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	store := facts.NewStore()
	a := core.New(mod, store, core.Options{Seed: seed, Out: &out})
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	return &coldRun{mod: mod, store: store, output: out.Bytes(), stats: a.Stats()}
}

// renderStore flattens a store — recording order AND sorted order — so two
// stores compare byte-for-byte.
func renderStore(s *facts.Store) string {
	var b strings.Builder
	for _, f := range s.All() {
		fmt.Fprintf(&b, "%d|%s|%d det=%v hits=%d val=%v\n", f.Instr, f.Ctx.Key(), f.Seq, f.Det, f.Hits, f.Val)
	}
	b.WriteString("#sorted\n")
	for _, f := range s.Sorted() {
		fmt.Fprintf(&b, "%d|%s|%d det=%v hits=%d val=%v\n", f.Instr, f.Ctx.Key(), f.Seq, f.Det, f.Hits, f.Val)
	}
	return b.String()
}

func mustOpen(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func storeRun(t *testing.T, c *Cache, key Key, r *coldRun) {
	t.Helper()
	if err := c.Store(key, r.store, capture(r.output), r.stats, 0); err != nil {
		t.Fatal(err)
	}
}

func capture(output []byte) *Capture {
	w := &Capture{}
	w.Write(output)
	return w
}

func TestRoundTripByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})

	c := mustOpen(t, dir)
	if _, ok := c.Lookup(key); ok {
		t.Fatal("lookup hit on an empty cache")
	}
	storeRun(t, c, key, cold)

	// A fresh Cache on the same dir simulates a new process: everything
	// must come back from disk.
	warm := mustOpen(t, dir)
	hit, ok := warm.Lookup(key)
	if !ok {
		t.Fatal("warm lookup missed")
	}
	if got, want := renderStore(hit.Store), renderStore(cold.store); got != want {
		t.Fatalf("replayed store differs from cold store:\n--- warm\n%s\n--- cold\n%s", got, want)
	}
	if !bytes.Equal(hit.Output, cold.output) {
		t.Fatalf("output differs: %q vs %q", hit.Output, cold.output)
	}
	if got, want := fmt.Sprintf("%+v", hit.Stats), fmt.Sprintf("%+v", cold.stats); got != want {
		t.Fatalf("stats differ:\n%s\nvs\n%s", got, want)
	}
	if st := warm.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want exactly 1 hit", st)
	}
	// One cached run is one file on disk.
	if files := dbFiles(t, dir); len(files) != 1 {
		t.Fatalf("db holds %d files, want 1: %v", len(files), files)
	}

	// A memory hit hands out an independent store: mutating one hit must
	// not leak into the next.
	hit.Store.Merge(runCold(t, testSrc, 8).store)
	if hit.Stats.FlushReasons == nil {
		hit.Stats.FlushReasons = map[string]int{}
	}
	hit.Stats.FlushReasons["mutated"] = 1
	again, ok := warm.Lookup(key)
	if !ok {
		t.Fatal("memory lookup missed")
	}
	if got, want := renderStore(again.Store), renderStore(cold.store); got != want {
		t.Fatal("a caller's mutation of one hit leaked into the cached entry")
	}
	if _, leaked := again.Stats.FlushReasons["mutated"]; leaked {
		t.Fatal("a caller's mutation of one hit's stats leaked into the cached entry")
	}
}

func TestKeySeparatesOptionsAndSource(t *testing.T) {
	base := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	for name, k := range map[string]Key{
		"seed":   KeyFor("cache.js", testSrc, Sig{Seed: 8}),
		"source": KeyFor("cache.js", testSrc+"\n", Sig{Seed: 7}),
		"file":   KeyFor("other.js", testSrc, Sig{Seed: 7}),
		"input":  KeyFor("cache.js", testSrc, Sig{Seed: 7, Inputs: []InputSig{{Name: "x", Kind: 3, NumBits: 1}}}),
	} {
		if k.ID() == base.ID() {
			t.Errorf("%s variation did not change the key", name)
		}
	}
	// Input order must NOT change the key (canonicalized by name).
	a := KeyFor("cache.js", testSrc, Sig{Inputs: []InputSig{{Name: "a"}, {Name: "b", Kind: 1}}})
	b := KeyFor("cache.js", testSrc, Sig{Inputs: []InputSig{{Name: "b", Kind: 1}, {Name: "a"}}})
	if a.ID() != b.ID() {
		t.Error("input order changed the key")
	}
}

// dbFiles lists every record file under the cache dir.
func dbFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("cache dir holds no files")
	}
	return files
}

// otherKeyRecord returns the framed record a cold run of src stores under
// a different key — a valid frame that belongs somewhere else.
func otherKeyRecord(t *testing.T, cold *coldRun) []byte {
	t.Helper()
	dir := t.TempDir()
	other := KeyFor("cache.js", testSrc, Sig{Seed: 99})
	storeRun(t, mustOpen(t, dir), other, cold)
	files := dbFiles(t, dir)
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCorruptionRecovery damages every DB file in several ways; each time,
// a fresh cache must miss cleanly (no panic, no wrong facts), and one
// re-store must fully repair the entry.
func TestCorruptionRecovery(t *testing.T) {
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	foreign := otherKeyRecord(t, cold)

	damage := map[string]func([]byte) []byte{
		"truncate-header":  func(b []byte) []byte { return b[:headerSize/2] },
		"truncate-payload": func(b []byte) []byte { return b[:len(b)-1] },
		"flip-payload": func(b []byte) []byte {
			nb := append([]byte(nil), b...)
			nb[headerSize+(len(nb)-headerSize)/2] ^= 0x40
			return nb
		},
		"bad-magic": func(b []byte) []byte {
			nb := append([]byte(nil), b...)
			copy(nb, "NOPE")
			return nb
		},
		"future-version": func(b []byte) []byte {
			nb := append([]byte(nil), b...)
			binary.LittleEndian.PutUint16(nb[4:], Version+1)
			return nb
		},
		"empty": func([]byte) []byte { return nil },
		// A record that validates end to end but was stored for another
		// key: the embedded key id must reject it.
		"other-key": func([]byte) []byte { return foreign },
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := mustOpen(t, dir)
			storeRun(t, c, key, cold)
			for _, path := range dbFiles(t, dir) {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// Fresh process: must fall back to a miss and must never serve
			// damaged facts.
			fresh := mustOpen(t, dir)
			if hit, ok := fresh.Lookup(key); ok {
				if got, want := renderStore(hit.Store), renderStore(cold.store); got != want {
					t.Fatalf("served wrong facts from damaged db")
				}
				t.Fatalf("lookup hit on a fully damaged db")
			}
			if fresh.Stats().Invalidations == 0 {
				t.Fatal("no invalidation recorded for damaged db")
			}
			// One re-store repairs the record.
			storeRun(t, fresh, key, cold)
			again := mustOpen(t, dir)
			hit, ok := again.Lookup(key)
			if !ok {
				t.Fatal("lookup missed after repair")
			}
			if got, want := renderStore(hit.Store), renderStore(cold.store); got != want {
				t.Fatalf("repaired store differs:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestPartialObjectDamage flips one byte at a time — every header byte
// plus positions across the payload — leaving the rest of the record
// intact: every single-byte corruption must degrade to a clean miss.
func TestPartialObjectDamage(t *testing.T) {
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	dir := t.TempDir()
	storeRun(t, mustOpen(t, dir), key, cold)
	path := dbFiles(t, dir)[0]
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int
	for i := 0; i < headerSize; i++ {
		offsets = append(offsets, i)
	}
	for i := 1; i <= 8; i++ {
		offsets = append(offsets, headerSize+(len(orig)-headerSize-1)*i/8)
	}
	for _, off := range offsets {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := mustOpen(t, dir)
		if _, ok := fresh.Lookup(key); ok {
			t.Fatalf("offset %d: lookup hit on a damaged record", off)
		}
		if fresh.Stats().Invalidations != 1 {
			t.Fatalf("offset %d: stats = %+v, want one invalidation", off, fresh.Stats())
		}
		// The invalidation removed the record; repair and continue.
		storeRun(t, mustOpen(t, dir), key, cold)
	}
}

func TestDBFrameValidation(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := hashString("record")
	payload := []byte(`{"hello":"world"}`)
	if created, err := db.Put(id, payload); err != nil || !created {
		t.Fatalf("put: created=%v err=%v", created, err)
	}
	if created, err := db.Put(id, payload); err != nil || created {
		t.Fatalf("identical payload rewritten: created=%v err=%v", created, err)
	}
	got, err := db.Get(id)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get: %q, %v", got, err)
	}
	// A different payload under the same id is a rewrite, not a dedup.
	if created, err := db.Put(id, []byte("other")); err != nil || !created {
		t.Fatalf("changed payload not rewritten: created=%v err=%v", created, err)
	}
	if _, err := db.Get(hashString("absent")); !IsNotExist(err) {
		t.Fatalf("missing record: %v", err)
	}
	// Ids that are not hex digests never name a path.
	for _, bad := range []string{"", "ab", "../../etc/passwd", strings.Repeat("zz", 32)} {
		if _, err := db.Get(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("malformed id %q: %v", bad, err)
		}
		if _, err := db.Put(bad, payload); err == nil {
			t.Errorf("put accepted malformed id %q", bad)
		}
	}

	// A record whose frame validates but that was stored for another key
	// reads as corrupt, and the cache falls back to re-analysis.
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	foreign, err := unframe(otherKeyRecord(t, cold))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put(key.ID(), foreign); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	c := mustOpen(t, dir).WithMetrics(m)
	if _, ok := c.Lookup(key); ok {
		t.Fatal("a record filed under another key's path was served")
	}
	if n := m.Counter(`factcache_invalidations_total{reason="corrupt"}`).Value(); n != 1 {
		t.Fatalf("corrupt invalidations = %d, want 1", n)
	}
	if _, err := db.Get(key.ID()); !IsNotExist(err) {
		t.Fatalf("foreign record not removed: %v", err)
	}
}

func TestStoreSkipsOversizedOutput(t *testing.T) {
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	c := mustOpen(t, t.TempDir())
	big := capture(make([]byte, MaxOutputBytes))
	big.Write([]byte("x"))
	if err := c.Store(key, cold.store, big, cold.stats, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(key); ok {
		t.Fatal("oversized-output run was cached")
	}
	if c.Stats().Skips == 0 {
		t.Fatal("skip not recorded")
	}
}
