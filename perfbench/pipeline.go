package main

import (
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	"determinacy/internal/ast"
	"determinacy/internal/batch/progcache"
	"determinacy/internal/core"
	"determinacy/internal/dom"
	"determinacy/internal/experiment"
	"determinacy/internal/facts"
	"determinacy/internal/ir"
	"determinacy/internal/lexer"
	"determinacy/internal/parser"
	"determinacy/internal/pointsto"
	"determinacy/internal/specialize"
	"determinacy/internal/vm"
)

// The experiment defaults the traced pipeline reproduces; the untraced run
// gets the same values from experiment.Config's own defaults, and the
// rendering check proves the two pipelines agree.
const (
	experimentNow = 1371161337000 // experiment.RunDynamic's fixed Date.now
	ptBudget      = 60_000
	maxFlushes    = 1000
	handlerLimit  = 8
)

// source is one input handed to the front end.
type source struct{ file, src string }

// dynInput is one instrumented run, kept for the engine replay.
type dynInput struct {
	src         source
	opts        core.Options
	dom, detDOM bool
}

// pipeline makes the experiment harness's calls into each layer itself,
// with a span around each, so the traced run sees per-layer time without
// instrumenting the program. One pipeline value serves one operation (a
// Table 1 pass or a study pass); its compile cache is fresh per operation,
// like experiment.Config's default.
type pipeline struct {
	tr     *tracer
	op     int
	cache  *progcache.Cache
	counts map[string]float64
	misses []source   // front-end misses, replayed by frontEndSweep
	dyns   []dynInput // instrumented runs, replayed by engineReplay
}

func newPipeline(tr *tracer, op int) *pipeline {
	return &pipeline{tr: tr, op: op, cache: progcache.New(0), counts: map[string]float64{}}
}

func (p *pipeline) compile(parent int, file, src string) (*ast.Program, *ir.Module, error) {
	var (
		prog *ast.Program
		mod  *ir.Module
		hit  bool
		err  error
	)
	p.tr.timed(p.op, parent, "progcache.compile", func() {
		prog, mod, hit, err = p.cache.CompileHit(file, src)
	})
	p.counts["progcache.lookups"]++
	if hit {
		p.counts["progcache.hits"]++
	} else {
		p.misses = append(p.misses, source{file, src})
	}
	return prog, mod, err
}

// allocBytes reads the runtime's cumulative heap allocation counter,
// without the stop-the-world pause of runtime.ReadMemStats.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// solve runs the points-to analysis. Its allocation is the growth of the
// runtime's cumulative counter, which is exact for a serial caller.
func (p *pipeline) solve(parent int, mod *ir.Module) (*pointsto.Result, error) {
	before := allocBytes()
	var (
		res *pointsto.Result
		err error
	)
	p.tr.timed(p.op, parent, "pointsto.solve", func() {
		res, err = pointsto.AnalyzeGuarded(mod, pointsto.Options{Budget: ptBudget})
	})
	after := allocBytes()
	if err != nil {
		return nil, err
	}
	p.counts["pointsto.propagations"] += float64(res.Propagations)
	p.counts["pointsto.nodes"] += float64(res.NumNodes)
	p.counts["pointsto.objects"] += float64(res.NumObjects)
	p.counts["pointsto.alloc_mb"] += float64(after-before) / 1e6
	return res, nil
}

// dynamic is experiment.RunDynamic without a fact cache.
func (p *pipeline) dynamic(parent int, file, src string, detDOM bool) (*experiment.DynamicRun, error) {
	prog, mod, err := p.compile(parent, file, src)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	opts := core.Options{Now: experimentNow, MaxFlushes: maxFlushes, Out: io.Discard}
	p.dyns = append(p.dyns, dynInput{source{file, src}, opts, true, detDOM})
	store := facts.NewStore()
	a := core.New(mod, store, opts)
	binding := dom.InstallCore(a, dom.NewDocument(dom.Options{}), detDOM)
	out := &experiment.DynamicRun{Prog: prog, Mod: mod, Store: store}
	var runErr error
	p.tr.timed(p.op, parent, "core.exec", func() { _, runErr = a.Run() })
	if runErr == nil || errors.Is(runErr, core.ErrFlushLimit) {
		var herr error
		p.tr.timed(p.op, parent, "dom.handlers", func() { out.HandlersRan, herr = binding.RunHandlers(handlerLimit) })
		if runErr == nil {
			runErr = herr
		}
	}
	if errors.Is(runErr, core.ErrFlushLimit) {
		out.FlushLimit = true
		runErr = nil
	}
	out.RunErr = runErr
	out.Stats = a.Stats()
	p.counts["core.steps"] += float64(out.Stats.Steps)
	p.counts["core.heap_flushes"] += float64(out.Stats.HeapFlushes)
	p.counts["core.counterfactuals"] += float64(out.Stats.Counterfacts)
	p.counts["core.cf_aborts"] += float64(out.Stats.CFAborts)
	p.counts["core.facts"] += float64(store.Len())
	p.counts["dom.handlers_ran"] += float64(out.HandlersRan)
	return out, nil
}

// specializeAndPrint specializes a dynamic run and prints the result.
func (p *pipeline) specializeAndPrint(parent int, dyn *experiment.DynamicRun, opts specialize.Options) (*specialize.Result, string, error) {
	var (
		res *specialize.Result
		err error
	)
	p.tr.timed(p.op, parent, "specialize", func() {
		res, err = specialize.Specialize(dyn.Prog, dyn.Mod, dyn.Store, opts)
	})
	if err != nil {
		return nil, "", err
	}
	p.counts["specialize.evals_eliminated"] += float64(res.Stats.EvalsEliminated)
	var src string
	p.tr.timed(p.op, parent, "ast.print", func() { src = ast.Print(res.Program) })
	p.counts["ast.printed_bytes"] += float64(len(src))
	return res, src, nil
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// layerTimes are per-round medians of a replay, in milliseconds.
type layerTimes map[string]float64

// frontEndSweep times lex, parse and lower of every source the pipeline
// compiled on a miss. Inside the compile cache the three stages are not
// visible from outside, so they are replayed after the measured passes,
// where the replay cannot slow the passes down. parser.Parse lexes its
// input itself, so parse time includes a second lex.
func frontEndSweep(misses []source, rounds int) (layerTimes, float64, error) {
	var lex, parse, lower sample
	instrs := 0
	for r := 0; r < rounds; r++ {
		var l, pa, lo float64
		instrs = 0
		for _, s := range misses {
			var lerr error
			l += ms(timeIt(func() {
				lx := lexer.New(s.src)
				lx.All()
				lerr = lx.Err()
			}))
			if lerr != nil {
				return nil, 0, fmt.Errorf("lex %s: %w", s.file, lerr)
			}
			var prog *ast.Program
			var err error
			pa += ms(timeIt(func() { prog, err = parser.Parse(s.file, s.src) }))
			if err != nil {
				return nil, 0, fmt.Errorf("parse %s: %w", s.file, err)
			}
			var mod *ir.Module
			lo += ms(timeIt(func() { mod, err = ir.Lower(prog) }))
			if err != nil {
				return nil, 0, fmt.Errorf("lower %s: %w", s.file, err)
			}
			instrs += mod.NumInstrs
		}
		lex, parse, lower = append(lex, l), append(parse, pa), append(lower, lo)
	}
	return layerTimes{"lexer.lex_ms": lex.median(), "parser.parse_ms": parse.median(), "ir.lower_ms": lower.median()}, float64(instrs), nil
}

// engineReplay re-runs instrumented runs under each engine, alternating
// engines round by round, and returns the median per-round total of
// a.Run time for the tree engine and the bytecode engine. A replayed run
// is deterministic, so it ends exactly as the measured run did, error
// included; the replay only times it.
func engineReplay(dyns []dynInput, rounds int) (tree, bytecode float64, err error) {
	mods := make([]*ir.Module, len(dyns))
	for i, d := range dyns {
		if mods[i], err = ir.Compile(d.src.file, d.src.src); err != nil {
			return 0, 0, err
		}
	}
	var ts, bs sample
	for r := 0; r < rounds; r++ {
		for _, eng := range []vm.Engine{vm.EngineTree, vm.EngineBytecode} {
			total := 0.0
			for i, d := range dyns {
				opts := d.opts
				opts.Engine = eng
				a := core.New(mods[i].Clone(), facts.NewStore(), opts)
				if d.dom {
					dom.InstallCore(a, dom.NewDocument(dom.Options{}), d.detDOM)
				}
				total += ms(timeIt(func() { _, _ = a.Run() }))
			}
			if eng == vm.EngineTree {
				ts = append(ts, total)
			} else {
				bs = append(bs, total)
			}
		}
	}
	return ts.median(), bs.median(), nil
}
