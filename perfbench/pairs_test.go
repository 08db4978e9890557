package main

import (
	"fmt"
	"runtime"
	"testing"

	"determinacy/internal/experiment"
)

// TestEvalStudyPipelinePairs checks that the restated eval-study pipeline
// the traced run times (pipeline.go) costs what experiment.RunEvalStudy
// costs, and measures what its spans add. It times blocks of two-mode
// passes of three variants, the harness, the pipeline with a nil tracer
// and the pipeline traced, in ten rounds whose order alternates, and
// prints each round's ratios and their medians. It takes about 25 s:
//
//	cd perfbench && go test -run EvalStudyPipelinePairs -v .
func TestEvalStudyPipelinePairs(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; run it on its own")
	}
	pipelinePass := func(tr *tracer) func() {
		return func() {
			for _, detDOM := range evalModes {
				newPipeline(tr, 0).evalStudy(0, detDOM)
			}
		}
	}
	variants := []struct {
		name string
		pass func()
	}{
		{"harness", func() {
			for _, detDOM := range evalModes {
				experiment.RunEvalStudy(detDOM, experiment.Config{Workers: 1})
			}
		}},
		{"pipeline", pipelinePass(nil)},
		{"traced", pipelinePass(newTracer())},
	}
	// block returns the median wall and CPU time of n passes, each from a
	// collected heap as in the benchmark.
	block := func(pass func(), n int) (wall, cpu float64) {
		var w, c sample
		for i := 0; i < n; i++ {
			runtime.GC()
			cpu0 := cpuTime()
			w = append(w, ms(timeIt(pass)))
			c = append(c, ms(cpuTime()-cpu0))
		}
		return w.median(), c.median()
	}
	for _, v := range variants {
		block(v.pass, 5) // warm-up
	}
	const rounds, passes = 10, 20
	var wall, cpu [3]sample
	for r := 0; r < rounds; r++ {
		order := []int{0, 1, 2}
		if r%2 == 1 {
			order = []int{2, 1, 0}
		}
		for _, i := range order {
			w, c := block(variants[i].pass, passes)
			wall[i], cpu[i] = append(wall[i], w), append(cpu[i], c)
		}
		fmt.Printf("round %d: wall ms harness %.2f pipeline %.2f traced %.2f; cpu ms %.2f %.2f %.2f\n",
			r, wall[0][r], wall[1][r], wall[2][r], cpu[0][r], cpu[1][r], cpu[2][r])
	}
	ratio := func(a, b sample) (median float64, aFaster int) {
		var rs sample
		for i := range a {
			rs = append(rs, a[i]/b[i])
			if a[i] < b[i] {
				aFaster++
			}
		}
		return rs.median(), aFaster
	}
	for _, c := range []struct {
		label string
		a, b  int
	}{{"pipeline/harness", 1, 0}, {"traced/pipeline", 2, 1}, {"traced/harness", 2, 0}} {
		wr, wf := ratio(wall[c.a], wall[c.b])
		cr, cf := ratio(cpu[c.a], cpu[c.b])
		fmt.Printf("%s: wall median ratio %.3f (faster in %d of %d rounds), cpu median ratio %.3f (faster in %d)\n",
			c.label, wr, wf, rounds, cr, cf)
	}
}
