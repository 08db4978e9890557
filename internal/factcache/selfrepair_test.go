package factcache

import (
	"os"
	"sync"
	"testing"
)

// TestConcurrentSelfRepair pins the repair contract under contention: two
// goroutines hit the same bit-flipped record at once, both degrade to a
// clean miss, both re-store the run concurrently — and the record is
// rewritten exactly ONCE (the second store finds the repaired file already
// valid and identical), after which both observers read warm results
// byte-identical to the cold run. Run under -race, this also pins the
// Cache/DB locking.
func TestConcurrentSelfRepair(t *testing.T) {
	dir := t.TempDir()
	cold := runCold(t, testSrc, 7)
	key := KeyFor("cache.js", testSrc, Sig{Seed: 7})
	storeRun(t, mustOpen(t, dir), key, cold)
	wantRender := renderStore(cold.store)

	// Flip one payload bit in the run's record.
	files := dbFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("db holds %d files, want the run's one record", len(files))
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize] ^= 0x01
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	// One shared fresh handle: the empty memory LRU forces both goroutines
	// through the disk path where the damage lives.
	c := mustOpen(t, dir)

	// Phase 1: both goroutines look up concurrently. Each must see a
	// clean miss — one invalidates the damaged record, the other races it
	// into either a second invalidation or a missing-record miss.
	var phase sync.WaitGroup
	gate := make(chan struct{})
	var hits [2]bool
	for g := 0; g < 2; g++ {
		phase.Add(1)
		go func(g int) {
			defer phase.Done()
			<-gate
			_, hits[g] = c.Lookup(key)
		}(g)
	}
	close(gate)
	phase.Wait()
	if hits[0] || hits[1] {
		t.Fatalf("lookup hit on a corrupted record (hits=%v)", hits)
	}
	if st := c.Stats(); st.Invalidations == 0 {
		t.Fatalf("stats = %+v: no invalidation recorded for the damaged record", st)
	}

	// Phase 2: both re-analyze (precomputed — the runs are deterministic)
	// and store concurrently, as two request handlers would after the
	// shared miss.
	reruns := [2]*coldRun{runCold(t, testSrc, 7), runCold(t, testSrc, 7)}
	written0 := c.Stats().Stores
	gate = make(chan struct{})
	for g := 0; g < 2; g++ {
		phase.Add(1)
		go func(g int) {
			defer phase.Done()
			<-gate
			r := reruns[g]
			if err := c.Store(key, r.store, capture(r.output), r.stats, 0); err != nil {
				t.Errorf("goroutine %d: store: %v", g, err)
			}
		}(g)
	}
	close(gate)
	phase.Wait()
	// Exactly one repair: the second store finds the valid, identical
	// record the first one wrote and leaves it.
	if got := c.Stats().Stores - written0; got != 1 {
		t.Fatalf("records written during concurrent repair = %d, want exactly 1", got)
	}
	if files := dbFiles(t, dir); len(files) != 1 {
		t.Fatalf("db holds %d files after repair, want 1: %v", len(files), files)
	}

	// Phase 3: both observers (and a fresh process) read warm results
	// byte-identical to the cold run.
	renders := [2]string{}
	gate = make(chan struct{})
	for g := 0; g < 2; g++ {
		phase.Add(1)
		go func(g int) {
			defer phase.Done()
			<-gate
			hit, ok := c.Lookup(key)
			if !ok {
				t.Errorf("goroutine %d: lookup missed after repair", g)
				return
			}
			renders[g] = renderStore(hit.Store)
		}(g)
	}
	close(gate)
	phase.Wait()
	for g, got := range renders {
		if got != wantRender {
			t.Errorf("goroutine %d: warm render differs from cold run", g)
		}
	}
	if hit, ok := mustOpen(t, dir).Lookup(key); !ok {
		t.Fatal("fresh-process lookup missed after repair")
	} else if renderStore(hit.Store) != wantRender {
		t.Fatal("fresh-process warm render differs from cold run")
	}
}
