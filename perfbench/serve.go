package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"determinacy"
	"determinacy/internal/core"
	"determinacy/internal/obs"
	"determinacy/internal/server"
	"determinacy/internal/workload"
)

// The serve-mix traffic. The hot set fits the fact cache and the compile
// cache many times over, so a repeat is a cache read and a fresh program
// the cache write path.
const (
	hotSetSize    = 64
	hotCandidates = 4 // programs drawn per hot slot; see generate
	freshShare    = 0.2
	// defaultZipf is the exponent of the hot-set picks, P(k) ∝ (1+k)^-s.
	// It is an assumption, not a measurement of this service's traffic;
	// README.md ("Inputs and seeds") gives how the metrics move at 0.8.
	defaultZipf = 1.1
	// offeredRate is phase 1's fixed open-loop rate: about a third of the
	// closed-loop capacity (about 220-300 req/s on the 2-core host the
	// benchmark was written on). At two thirds, queueing amplified the
	// host's own noise until one seed's median doubled between runs;
	// README.md has the figures.
	offeredRate = 90.0
	// phase1Share of the run is the open loop, the rest the closed loop.
	phase1Share = 0.6
	// phase2MaxRate sizes the closed loop's pool of fresh programs; a
	// server faster than this ends phase 2 early instead of reusing
	// programs, and its capacity is still completions over elapsed time.
	phase2MaxRate = 350.0
	// phase2Segments is how many parts phase 2 runs in, with a calibration
	// block between each two.
	phase2Segments = 8
	// capacityWindow is the window phase 2 counts completions in.
	capacityWindow = 250 * time.Millisecond
	// replayRequests is how many phase-1 requests the traced run replays
	// through the layers one call at a time.
	replayRequests = 400
)

// genConfig makes programs of about 1.2k facts and a 130 KB response:
// objects, prototypes and for-in loops, no eval (eval runs are never
// cached) and no console output.
func genConfig(seed uint64) workload.GenConfig {
	return workload.GenConfig{Seed: seed, MaxStmts: 60, IndetPercent: 40, WithProto: true, WithForIn: true}
}

// digest is the checksum and length of a response's "facts" and "stats"
// members, exactly as encoding/json writes them.
type digest struct {
	crc uint32
	n   int
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mixRequest is one request of a phase: the program and, in the open
// loop, when it is due.
type mixRequest struct {
	prog int
	due  time.Duration
}

type serveMix struct {
	programs []string // hot set first, then fresh programs in send order
	bodies   [][]byte
	want     []digest
	phase1   []mixRequest
	phase2   []mixRequest
	// screened counts the generated programs replaced because their
	// reference analysis passed the allocation bound (screen.go).
	screened int

	dir     string
	metrics *obs.Metrics
	srv     *server.Server
	handler http.Handler
	// base is the server's registry after the warm-up, so the reported
	// waits and sheds cover the measured phases only.
	base serverCounters
}

func isHot(prog int) bool { return prog < hotSetSize }

func setupServeMix(e *env) (runner, error) {
	s := &serveMix{}
	if err := s.generate(e); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "factdb-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	fc, err := determinacy.OpenFactCache(dir)
	if err != nil {
		return nil, err
	}
	s.metrics = obs.NewMetrics()
	// cmd/detserve's defaults with -factcache set.
	s.srv = server.New(server.Config{Metrics: s.metrics, FactCache: fc.WithMetrics(s.metrics)})
	s.handler = s.srv.Handler()
	for prog := 0; prog < hotSetSize; prog++ {
		if err := s.call(prog); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if s.base, err = readServer(s.metrics); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// hotRanks maps a Zipf rank to the size stratum the program at that rank
// comes from. It is the same for every seed, so every seed's hottest
// programs have the same sizes; only which programs they are changes.
var hotRanks = rand.New(rand.NewSource(hotSetSize)).Perm(hotSetSize)

// generate makes the programs, their reference digests and both phases'
// request sequences from the seed alone.
//
// Generated programs vary in analysis time with a coefficient of
// variation of about 0.75, and a Zipf pick puts a quarter of the hot
// traffic on one program, so a hot set of 64 plain draws made the
// traffic's cost depend on the seed. The hot set is therefore stratified:
// the seed draws hotCandidates programs per hot slot, they are ordered by
// fact count, and one program per stratum is picked, by the seed, for the
// rank hotRanks assigns that stratum.
func (s *serveMix) generate(e *env) error {
	rng := rand.New(rand.NewSource(int64(e.seed)))
	genSeed := e.seed * 1_000_003
	gen := func() string {
		genSeed++
		return workload.RandomProgram(genConfig(genSeed))
	}

	cands := make([]string, hotSetSize*hotCandidates)
	for i := range cands {
		cands[i] = gen()
	}
	ref, screened, err := screen(e.work, cands, gen)
	if err != nil {
		return err
	}
	s.screened += screened
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ref[order[a]].facts < ref[order[b]].facts })
	for _, stratum := range hotRanks {
		c := order[stratum*hotCandidates+rng.Intn(hotCandidates)]
		s.programs = append(s.programs, cands[c])
		s.want = append(s.want, ref[c].digest)
	}

	p1 := e.seconds * phase1Share
	n1 := int(offeredRate * p1)
	var at float64
	for _, pick := range picks(rng, n1, e.zipf) {
		at += rng.ExpFloat64() / offeredRate
		s.phase1 = append(s.phase1, mixRequest{prog: s.program(pick, gen), due: time.Duration(at * float64(time.Second))})
	}
	for _, pick := range picks(rng, int(phase2MaxRate*(e.seconds-p1)), e.zipf) {
		s.phase2 = append(s.phase2, mixRequest{prog: s.program(pick, gen)})
	}
	fresh, screened, err := screen(e.work, s.programs[hotSetSize:], gen)
	if err != nil {
		return err
	}
	s.screened += screened
	for _, r := range fresh {
		s.want = append(s.want, r.digest)
	}
	for _, src := range s.programs {
		body, _ := json.Marshal(server.AnalyzeRequest{Source: src}) // cannot fail: a struct of strings
		s.bodies = append(s.bodies, body)
	}
	return nil
}

// pickBlock is how many requests picks apportions at a time.
const pickBlock = 250

// program resolves a pick: a hot rank is its program, a fresh pick
// (negative) a newly generated one.
func (s *serveMix) program(pick int, gen func() string) int {
	if pick >= 0 {
		return pick
	}
	s.programs = append(s.programs, gen())
	return len(s.programs) - 1
}

// picks returns n requests in blocks of pickBlock: each block holds
// exactly freshShare fresh picks (-1) and hot ranks in Zipf proportions,
// P(k) ∝ (1+k)^-zipf, apportioned by largest remainder, in an order the
// seed shuffles. Fixed counts per block, rather than one draw per pick,
// keep the mix of any prefix of the sequence, and so the cost of the
// traffic a phase gets through, the same for every seed.
func picks(rng *rand.Rand, n int, zipf float64) []int {
	var out []int
	for len(out) < n {
		out = append(out, pickBlockOf(rng, min(pickBlock, n-len(out)), zipf)...)
	}
	return out
}

func pickBlockOf(rng *rand.Rand, n int, zipf float64) []int {
	fresh := int(math.Round(freshShare * float64(n)))
	hot := n - fresh
	weights := make([]float64, hotSetSize)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(1+float64(k), -zipf)
		total += weights[k]
	}
	counts := make([]int, hotSetSize)
	rem := make([]int, hotSetSize)
	left := hot
	for k, w := range weights {
		counts[k] = int(float64(hot) * w / total)
		left -= counts[k]
		rem[k] = k
	}
	frac := func(k int) float64 { return float64(hot)*weights[k]/total - float64(counts[k]) }
	sort.SliceStable(rem, func(a, b int) bool { return frac(rem[a]) > frac(rem[b]) })
	for _, k := range rem[:left] {
		counts[k]++
	}
	out := make([]int, 0, n)
	for i := 0; i < fresh; i++ {
		out = append(out, -1)
	}
	for k, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// wireFacts holds the members of a server.AnalyzeResponse that the
// correctness check compares.
type wireFacts struct {
	Facts []determinacy.Fact `json:"facts"`
	Stats server.StatsJSON   `json:"stats"`
}

// wireOf builds what server's buildResponse puts on the wire for res,
// given its already rendered facts.
func wireOf(res *determinacy.Result, facts []determinacy.Fact) wireFacts {
	if facts == nil {
		facts = []determinacy.Fact{} // the server sends [] rather than null
	}
	st := res.Stats
	return wireFacts{Facts: facts, Stats: server.StatsJSON{
		Steps: st.Steps, HeapFlushes: st.HeapFlushes, EnvFlushes: st.EnvFlushes,
		Counterfactuals: st.Counterfacts, CFAborts: st.CFAborts, HandlersRan: res.HandlersRan,
	}}
}

func referenceDigest(res *determinacy.Result) (digest, error) {
	b, err := json.Marshal(wireOf(res, res.Facts()))
	if err != nil {
		return digest{}, err
	}
	return digestOf(b[1 : len(b)-1]), nil
}

func digestOf(b []byte) digest { return digest{crc32.Checksum(b, castagnoli), len(b)} }

// responseDigest cuts the "facts" and "stats" members out of a response
// body. Both sit between "num_determinate" and "elapsed_ms", the one
// member that differs between runs; neither key can occur unescaped
// inside a JSON string.
func responseDigest(body []byte) (digest, error) {
	i := bytes.Index(body, []byte(`"facts":`))
	j := bytes.LastIndex(body, []byte(`,"elapsed_ms":`))
	if i < 0 || j < i {
		return digest{}, fmt.Errorf("response has no facts and stats: %.200s", body)
	}
	return digestOf(body[i:j]), nil
}

// call sends one program to /v1/analyze and checks the response.
func (s *serveMix) call(prog int) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(s.bodies[prog]))
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("program %d: status %d: %.200s", prog, rec.Code, rec.Body.Bytes())
	}
	got, err := responseDigest(rec.Body.Bytes())
	if err != nil {
		return fmt.Errorf("program %d: %w", prog, err)
	}
	if got != s.want[prog] {
		return fmt.Errorf("program %d: facts and stats differ from a cache-free analysis", prog)
	}
	return nil
}

func (s *serveMix) close() {
	if s.srv != nil {
		s.srv.Drain(time.Second)
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// result is one request's latency and whether it was answered correctly.
type result struct {
	latency time.Duration
	err     error
}

func (s *serveMix) measure(e *env) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	clients := runtime.NumCPU()

	// Phase 1: open loop at offeredRate. A request is timed from when it
	// was due, so a generator stalled behind busy clients charges the wait
	// to the requests it delays.
	res1 := make([]result, len(s.phase1))
	late := make(sample, len(s.phase1))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				err := s.traced(e, k, s.phase1[k].prog)
				res1[k] = result{time.Since(start) - s.phase1[k].due, err}
			}
		}()
	}
	for k, r := range s.phase1 {
		if d := r.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		jobs <- k
		late[k] = ms(time.Since(start) - r.due)
	}
	close(jobs)
	wg.Wait()
	if err := e.cal.block(); err != nil {
		return nil, err
	}

	// Phase 2: closed loop, one outstanding request per client. Capacity
	// is the median over fixed windows of the correct completions in each,
	// so a moment of interference on a shared host moves one window, not
	// the result. The phase runs in phase2Segments segments with a
	// calibration block between them; its time and CPU time leave the
	// pauses out.
	res2 := make([]result, len(s.phase2))
	done2 := make([]time.Duration, len(s.phase2))
	var (
		next   atomic.Int64
		cpu2   time.Duration
		active time.Duration // phase 2's time under load
	)
	segment := time.Duration(e.seconds * (1 - phase1Share) / phase2Segments * float64(time.Second))
	for seg := 0; seg < phase2Segments; seg++ {
		if seg > 0 {
			if err := e.cal.block(); err != nil {
				return nil, err
			}
		}
		cpu0 := cpuTime()
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A client claims a request only while the segment lasts, so
				// every claimed request is sent.
				for time.Since(start) < segment {
					k := int(next.Add(1) - 1)
					if k >= len(s.phase2) {
						return
					}
					t0 := time.Now()
					err := s.traced(e, len(s.phase1)+k, s.phase2[k].prog)
					res2[k] = result{time.Since(t0), err}
					done2[k] = active + time.Since(start)
				}
			}()
		}
		wg.Wait()
		active += time.Since(start)
		cpu2 += cpuTime() - cpu0
	}
	elapsed2 := active.Seconds()
	sent2 := min(int(next.Load()), len(s.phase2))

	var all, repeat, fresh sample
	for k, r := range res1 {
		out.attempted++
		v := ms(r.latency)
		if r.err != nil {
			out.fail(r.err)
			v = math.Inf(1) // a failed request misses every latency limit
		}
		all = append(all, v)
		if isHot(s.phase1[k].prog) {
			repeat = append(repeat, v)
		} else {
			fresh = append(fresh, v)
		}
	}
	completed := 0
	windows := make(sample, int(elapsed2/capacityWindow.Seconds()))
	var closed sample
	for k, r := range res2[:sent2] {
		out.attempted++
		if r.err != nil {
			out.fail(r.err)
			closed = append(closed, math.Inf(1))
			continue
		}
		completed++
		closed = append(closed, ms(r.latency))
		if w := int(done2[k] / capacityWindow); w < len(windows) {
			windows[w]++
		}
	}
	// The gated median comes from the closed loop: there it is the time a
	// request takes under full load, while in the open loop queueing
	// amplifies every slowdown of the shared host (README.md has figures).
	out.p50ms = closed.median()
	out.throughput = windows.median() / capacityWindow.Seconds()
	// The clients' own work (building requests, checking responses) is
	// in the process's CPU time too.
	out.cpuMS = ms(cpu2) / float64(max(completed, 1))
	p99 := all.quantile(0.99)
	out.report = append(out.report,
		fmt.Sprintf("phase 1: open loop, %.0f req/s offered for %.3g s, %d clients, %d requests (%.0f%% fresh)",
			offeredRate, e.seconds*phase1Share, clients, len(res1), 100*float64(len(fresh))/float64(len(res1))),
		fmt.Sprintf("serve_repeat_p50_ms: %s", repeat.describe("ms")),
		fmt.Sprintf("serve_fresh_p50_ms: %s", fresh.describe("ms")),
		fmt.Sprintf("serve_p99_ms: %.4g ms over all %d phase-1 requests", p99, len(all)),
		fmt.Sprintf("generator lateness: %s, max %.4g ms", late.describe("ms"), late.quantile(1)),
		fmt.Sprintf("serve_p50_ms (open loop, all requests): %s", all.describe("ms")),
		fmt.Sprintf("phase 2 latency: %s", closed.describe("ms")),
		fmt.Sprintf("phase 2 CPU time: %.4g ms per completed request, server and clients", out.cpuMS),
		fmt.Sprintf("serve_capacity_rps: %.4g req/s, median of %d windows of %v (phase 2: closed loop, %d clients, %d completed in %.3g s)",
			out.throughput, len(windows), capacityWindow, clients, completed, elapsed2),
		fmt.Sprintf("screened out: %d generated programs whose analysis allocated more than %d MB, replaced by the next generated ones",
			s.screened, screenAllocBytes>>20),
	)
	if e.tr != nil {
		if err := s.layers(e, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traced sends one request inside a span when the run is traced.
func (s *serveMix) traced(e *env, op, prog int) error {
	var err error
	e.tr.timed(op, 0, "request", func() { err = s.call(prog) })
	return err
}

// layers reads the server's own registry, then replays the first
// replayRequests phase-1 requests one layer call at a time, twice, each
// time against a fresh compile cache and fact cache warmed like the
// server's. The two replays must give the same counts.
func (s *serveMix) layers(e *env, out *outcome) error {
	now, err := readServer(s.metrics)
	if err != nil {
		return err
	}
	wait := now.wait.minus(s.base.wait)
	out.layers["server.queue_wait_p50_ms"] = 1000 * wait.quantile(0.5)
	out.layers["server.queue_wait_p99_ms"] = 1000 * wait.quantile(0.99)
	out.layers["sched.sheds"] = float64(now.sheds - s.base.sheds)

	reqs := s.phase1[:min(replayRequests, len(s.phase1))]
	var r [2]*replayRun
	for i := range r {
		if r[i], err = s.replay(e, out, reqs, len(s.phase1)+len(s.phase2)+i*len(reqs)); err != nil {
			return err
		}
	}
	for _, name := range replayCounts {
		if r[1].counts[name] != r[0].counts[name] {
			out.fail(fmt.Errorf("count %s is %v in the second replay but %v in the first", name, r[1].counts[name], r[0].counts[name]))
		}
		out.layers[name] = r[0].counts[name]
	}
	both := func(f func(*replayRun) sample) float64 { return append(f(r[0]), f(r[1])...).median() }
	out.layers["progcache.compile_ms"] = both(func(r *replayRun) sample { return r.compile })
	out.layers["progcache.hit_ratio"] = r[0].counts["progcache.hits"] / float64(len(reqs))
	out.layers["factcache.hit_ratio"] = r[0].counts["factcache.hits"] / float64(len(reqs))
	out.layers["factcache.hit_ms"] = both(func(r *replayRun) sample { return r.hitMS })
	out.layers["factcache.miss_ms"] = both(func(r *replayRun) sample { return r.missMS })
	out.layers["facts.render_ms"] = both(func(r *replayRun) sample { return r.render })
	out.layers["server.encode_ms"] = both(func(r *replayRun) sample { return r.encode })
	out.layers["server.response_bytes"] = both(func(r *replayRun) sample { return r.respBytes })
	out.layers["factcache.db_bytes"] = float64(r[0].dbBytes)

	// Front end and dynamic run of the replay's fresh programs, per program.
	misses, dyns := r[0].misses, r[0].dyns
	if len(misses) > 0 {
		fe, instrs, err := frontEndSweep(misses, replayRounds)
		if err != nil {
			return err
		}
		for k, v := range fe {
			out.layers[k] = v / float64(len(misses))
		}
		out.layers["ir.instrs"] = instrs
		tree, bytecode, err := engineReplay(dyns, replayRounds)
		if err != nil {
			return err
		}
		out.layers["core.exec_ms"] = bytecode / float64(len(dyns))
		out.layers["core.exec_tree_ms"] = tree / float64(len(dyns))
	}
	out.report = append(out.report, fmt.Sprintf(
		"layer replay, twice: %d phase-1 requests, %v fact-cache hits, %v compile-cache hits, %d fresh programs",
		len(reqs), r[0].counts["factcache.hits"], r[0].counts["progcache.hits"], len(misses)))
	return nil
}

// replayCounts are the replay's counts that must repeat exactly from one
// replay to the next; every one is also a per-layer metric.
var replayCounts = []string{
	"progcache.hits", "factcache.hits", "factcache.db_files", "facts.count",
	"core.steps", "core.heap_flushes", "core.counterfactuals", "core.cf_aborts", "core.facts",
}

// replayRun is what one replay of the phase-1 requests measured.
type replayRun struct {
	counts                                            map[string]float64
	compile, hitMS, missMS, render, encode, respBytes sample
	dbBytes                                           int64
	misses                                            []source
	dyns                                              []dynInput
}

// replay sends reqs through the layers one call at a time, with ops
// numbered from base, against a fresh compile cache and fact cache
// warmed with the hot set.
func (s *serveMix) replay(e *env, out *outcome, reqs []mixRequest, base int) (*replayRun, error) {
	dir, err := os.MkdirTemp(e.work, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fc, err := determinacy.OpenFactCache(dir)
	if err != nil {
		return nil, err
	}
	cache := determinacy.NewCache(0)
	opts := determinacy.Options{MaxFlushes: maxFlushes, FactCache: fc}
	for prog := 0; prog < hotSetSize; prog++ {
		p, err := cache.Compile("program.js", s.programs[prog])
		if err != nil {
			return nil, err
		}
		if _, err := determinacy.AnalyzeProgram(p, opts); err != nil {
			return nil, err
		}
	}

	rp := &replayRun{counts: map[string]float64{}}
	for k, r := range reqs {
		op, src := base+k, s.programs[r.prog]
		var (
			p   *determinacy.Program
			hit bool
		)
		rp.compile = append(rp.compile, ms(e.tr.timed(op, 0, "progcache.compile", func() { p, hit, err = cache.CompileHit("program.js", src) })))
		if err != nil {
			return nil, err
		}
		if hit {
			rp.counts["progcache.hits"]++
		} else {
			rp.misses = append(rp.misses, source{"program.js", src})
			rp.dyns = append(rp.dyns, dynInput{src: source{"program.js", src}, opts: core.Options{MaxFlushes: maxFlushes}})
		}
		before := fc.Internal().Stats().Hits
		var res *determinacy.Result
		d := e.tr.timed(op, 0, "factcache.analyze", func() { res, err = determinacy.AnalyzeProgram(p, opts) })
		if err != nil {
			return nil, err
		}
		if fc.Internal().Stats().Hits > before {
			rp.counts["factcache.hits"]++
			rp.hitMS = append(rp.hitMS, ms(d))
		} else {
			rp.missMS = append(rp.missMS, ms(d))
			rp.counts["core.steps"] += float64(res.Stats.Steps)
			rp.counts["core.heap_flushes"] += float64(res.Stats.HeapFlushes)
			rp.counts["core.counterfactuals"] += float64(res.Stats.Counterfacts)
			rp.counts["core.cf_aborts"] += float64(res.Stats.CFAborts)
			rp.counts["core.facts"] += float64(res.NumFacts())
		}
		var facts []determinacy.Fact
		rp.render = append(rp.render, ms(e.tr.timed(op, 0, "facts.render", func() { facts = res.Facts() })))
		rp.counts["facts.count"] += float64(len(facts))
		var body bytes.Buffer
		rp.encode = append(rp.encode, ms(e.tr.timed(op, 0, "server.encode", func() {
			w := wireOf(res, facts)
			err = json.NewEncoder(&body).Encode(server.AnalyzeResponse{
				Name: "program.js", Partial: res.Partial, DegradeReason: string(res.Degraded),
				NumFacts: res.NumFacts(), NumDeterminate: res.NumDeterminate(),
				Facts: w.Facts, Stats: w.Stats,
			})
		})))
		if err != nil {
			return nil, err
		}
		rp.respBytes = append(rp.respBytes, float64(body.Len()))
		if got, err := responseDigest(body.Bytes()); err != nil || got != s.want[r.prog] {
			out.fail(fmt.Errorf("replayed program %d: facts and stats differ from a cache-free analysis", r.prog))
		}
	}
	files, size, err := dirSize(dir)
	if err != nil {
		return nil, err
	}
	rp.counts["factcache.db_files"], rp.dbBytes = float64(files), size
	return rp, nil
}

func dirSize(dir string) (files int, size int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			files++
			size += info.Size()
		}
		return nil
	})
	return files, size, err
}

// histJSONView is one histogram as obs.Metrics.WriteJSON renders it:
// cumulative counts per upper bound, the last bound "+Inf".
type histJSONView struct {
	Count   int64 `json:"count"`
	Buckets []struct {
		LE any   `json:"le"`
		N  int64 `json:"n"`
	} `json:"buckets"`
}

// serverCounters is what the benchmark reads from the server's registry.
type serverCounters struct {
	wait  histJSONView // server_queue_wait_seconds of the analyze route
	sheds int64        // sched_sheds_total over every reason
}

func readServer(m *obs.Metrics) (serverCounters, error) {
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		return serverCounters{}, err
	}
	var reg struct {
		Counters   map[string]int64        `json:"counters"`
		Histograms map[string]histJSONView `json:"histograms"`
	}
	if err := json.Unmarshal(b.Bytes(), &reg); err != nil {
		return serverCounters{}, err
	}
	var out serverCounters
	found := false
	for k, h := range reg.Histograms {
		if strings.HasPrefix(k, "server_queue_wait_seconds") && strings.Contains(k, `route="/v1/analyze"`) {
			out.wait, found = h, true
		}
	}
	if !found {
		return out, fmt.Errorf("no server_queue_wait_seconds histogram for the analyze route")
	}
	for k, v := range reg.Counters {
		if strings.HasPrefix(k, "sched_sheds_total") {
			out.sheds += v
		}
	}
	return out, nil
}

func (h histJSONView) minus(base histJSONView) histJSONView {
	out := h
	out.Buckets = append(out.Buckets[:0:0], h.Buckets...)
	out.Count -= base.Count
	for i := range out.Buckets {
		if i < len(base.Buckets) {
			out.Buckets[i].N -= base.Buckets[i].N
		}
	}
	return out
}

// quantile interpolates within the bucket holding the q-th sample, taking
// 0 as the first bucket's lower edge; a sample in the +Inf bucket reads as
// the highest finite bound.
func (h histJSONView) quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	lower, prev := 0.0, int64(0)
	for _, b := range h.Buckets {
		upper, finite := b.LE.(float64)
		if !finite {
			return lower
		}
		if float64(b.N) >= rank {
			inBucket := float64(b.N - prev)
			if inBucket == 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-float64(prev))/inBucket
		}
		lower, prev = upper, b.N
	}
	return lower
}
