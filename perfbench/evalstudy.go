package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"determinacy/internal/ast"
	"determinacy/internal/experiment"
	"determinacy/internal/obs"
	"determinacy/internal/specialize"
	"determinacy/internal/workload"
)

// evalStudy runs serial passes of the §5.2 eval-elimination study, each
// pass in both DOM modes over the 28-program corpus.
type evalStudy struct {
	want *bench0
	// headers are the per-mode summaries BENCH_0's series render to;
	// rendering is the warm-up pass's full output, which every later pass
	// must repeat byte for byte.
	headers   [2]string
	rendering string
}

var evalModes = [2]bool{false, true}

func setupEvalStudy(e *env) (runner, error) {
	b0, err := loadBench0(e.root)
	if err != nil {
		return nil, err
	}
	s := &evalStudy{want: b0.only("evalstudy_")}
	for i, detDOM := range evalModes {
		s.headers[i] = experiment.FormatEvalStudy(s.expectedStudy(detDOM))
	}
	var studies [2]*experiment.EvalStudy
	for i, detDOM := range evalModes {
		studies[i] = experiment.RunEvalStudy(detDOM, experiment.Config{Workers: 1})
	}
	s.rendering = renderStudies(studies)
	if err := s.check(studies); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return s, nil
}

// expectedStudy rebuilds the study counts BENCH_0 records for one mode.
func (s *evalStudy) expectedStudy(detDOM bool) *experiment.EvalStudy {
	mode := "dom"
	if detDOM {
		mode = "detdom"
	}
	c := func(name string) int { return int(s.want.Counters[fmt.Sprintf("%s{mode=%q}", name, mode)]) }
	st := &experiment.EvalStudy{
		DetDOM:   detDOM,
		Total:    c("evalstudy_benchmarks_total"),
		Runnable: c("evalstudy_runnable_total"),
		Handled:  c("evalstudy_handled_total"),
		OnlyOurs: c("evalstudy_beyond_syntactic_total"),
		ByReason: map[string]int{},
	}
	prefix := fmt.Sprintf("evalstudy_failures_total{mode=%q,reason=", mode)
	for k, v := range s.want.Counters {
		if strings.HasPrefix(k, prefix) {
			st.ByReason[strings.Trim(strings.TrimPrefix(k, prefix), `"}`)] = int(v)
		}
	}
	return st
}

func renderStudies(studies [2]*experiment.EvalStudy) string {
	return experiment.FormatEvalStudy(studies[0]) + experiment.FormatEvalStudy(studies[1])
}

// check compares a pass with BENCH_0's series and the per-mode summaries
// they render to. BENCH_0 records no per-benchmark lines, so those are
// held to the warm-up pass's rendering.
func (s *evalStudy) check(studies [2]*experiment.EvalStudy) error {
	for i, st := range studies {
		if got := experiment.FormatEvalStudy(st); !strings.HasPrefix(got, s.headers[i]) {
			return fmt.Errorf("eval-study summary differs from BENCH_0:\n%s\nwant:\n%s", got, s.headers[i])
		}
	}
	if s.rendering != "" {
		if got := renderStudies(studies); got != s.rendering {
			return fmt.Errorf("eval-study rendering differs from the warm-up pass:\n%s", got)
		}
	}
	got, err := seriesOf(func(m *obs.Metrics) {
		for _, st := range studies {
			experiment.EvalStudyMetrics(st, m)
		}
	}, "evalstudy_")
	if err != nil {
		return err
	}
	return got.diff(s.want)
}

func (s *evalStudy) close() {}

func (s *evalStudy) measure(e *env) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	var passes, cpu sample
	var counts []map[string]float64
	var first *pipeline
	start := time.Now()
	for op := 0; op == 0 || time.Since(start).Seconds() < e.seconds; op++ {
		// Each pass starts from a collected heap, so when the collector
		// runs within a pass does not depend on the pass before it.
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		cpu0 := cpuTime()
		var studies [2]*experiment.EvalStudy
		var d time.Duration
		if e.tr == nil {
			d = timeIt(func() {
				for i, detDOM := range evalModes {
					studies[i] = experiment.RunEvalStudy(detDOM, experiment.Config{Workers: 1})
				}
			})
		} else {
			id, t0 := e.tr.begin(op, 0, "pass")
			var merged map[string]float64
			for i, detDOM := range evalModes {
				// experiment.Config gives each RunEvalStudy call its own
				// compile cache.
				p := newPipeline(e.tr, op)
				studies[i] = p.evalStudy(id, detDOM)
				merged = mergeCounts(merged, p.counts)
				if op == 0 {
					if first == nil {
						first = p
					} else {
						first.misses = append(first.misses, p.misses...)
						first.dyns = append(first.dyns, p.dyns...)
					}
				}
			}
			d = e.tr.end(id, t0)
			counts = append(counts, merged)
			first.cache = nil // keep the replay inputs, not the compiled programs
		}
		passes = append(passes, ms(d))
		cpu = append(cpu, ms(cpuTime()-cpu0))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.rssMB = append(out.rssMB, rss)
		out.attempted++
		if err := s.check(studies); err != nil {
			out.fail(err)
		}
		if err := e.cal.maybe(); err != nil {
			return nil, err
		}
	}
	out.p50ms = passes.median()
	out.cpuMS = cpu.median()
	out.throughput = float64(out.attempted-out.failed) / (passes.sum() / 1000)
	out.report = append(out.report, fmt.Sprintf("evalstudy_pass_ms: %s (serial two-mode passes)", passes.describe("ms")))
	if e.tr != nil {
		if err := passLayers(e, out, counts, first); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func mergeCounts(into, from map[string]float64) map[string]float64 {
	if into == nil {
		into = map[string]float64{}
	}
	for k, v := range from {
		into[k] += v
	}
	return into
}

// evalStudy is experiment.RunEvalStudy with Workers: 1, one layer call at
// a time.
func (p *pipeline) evalStudy(parent int, detDOM bool) *experiment.EvalStudy {
	study := &experiment.EvalStudy{DetDOM: detDOM, ByReason: map[string]int{}}
	for _, b := range workload.EvalCorpus() {
		out := p.evalOne(parent, b, detDOM)
		study.Total++
		if out.Runnable {
			study.Runnable++
			if out.Handled {
				study.Handled++
				if !out.SyntacticHandled {
					study.OnlyOurs++
				}
			} else {
				study.ByReason[out.Reason]++
			}
		}
		study.Benchmarks = append(study.Benchmarks, out)
	}
	return study
}

func (p *pipeline) evalOne(parent int, b workload.EvalBenchmark, detDOM bool) experiment.EvalOutcome {
	out := experiment.EvalOutcome{Name: b.Name}
	dyn, err := p.dynamic(parent, "workload.js", b.Source, detDOM)
	if err != nil {
		out.Err = err
		return out
	}
	if dyn.RunErr != nil {
		return out
	}
	out.Runnable = true
	out.SyntacticHandled = syntacticBaselineHandles(dyn.Prog)
	res, specSrc, err := p.specializeAndPrint(parent, dyn, specialize.Options{EliminateEval: true})
	if err != nil {
		out.Err = err
		return out
	}
	out.Sites = res.EvalSites
	_, mod, err := p.compile(parent, "spec.js", specSrc)
	if err != nil {
		out.Err = fmt.Errorf("specialized output does not compile: %w", err)
		return out
	}
	pt, err := p.solve(parent, mod)
	if err != nil {
		out.Err = err
		return out
	}
	out.Handled = len(pt.EvalSites) == 0 && !pt.BudgetExceeded && pt.Interrupted == nil
	if !out.Handled {
		out.Reason = worstReason(res.EvalSites)
	}
	return out
}

// worstReason and syntacticBaselineHandles restate the experiment
// package's unexported helpers of the same names; the rendering check
// against the untraced warm-up pass keeps them in step.
func worstReason(sites []specialize.EvalSite) string {
	best := specialize.EvalEliminated
	for _, s := range sites {
		if s.Status > best {
			best = s.Status
		}
	}
	if best == specialize.EvalEliminated {
		return "residual-eval"
	}
	return best.String()
}

func syntacticBaselineHandles(prog *ast.Program) bool {
	ok := true
	ast.Walk(prog, func(n ast.Node) bool {
		call, isCall := n.(*ast.Call)
		if !isCall {
			return true
		}
		id, isIdent := call.Callee.(*ast.Ident)
		if !isIdent || id.Name != "eval" {
			return true
		}
		if len(call.Args) != 1 || !syntacticConst(call.Args[0]) {
			ok = false
		}
		return true
	})
	return ok
}

func syntacticConst(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.StringLit:
		return true
	case *ast.Binary:
		return x.Op == "+" && syntacticConst(x.L) && syntacticConst(x.R)
	default:
		return false
	}
}
