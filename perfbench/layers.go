package main

import "fmt"

// Per-pass counts that must repeat exactly from pass to pass: the passes
// run the same inputs serially. pointsto.nodes and pointsto.objects are
// not among them: a solve stopped by the budget has built as much of the
// graph as its map-ordered worklist reached, which varies from run to run.
var deterministicCounts = []string{
	"pointsto.propagations", "core.steps", "core.heap_flushes", "core.counterfactuals", "core.cf_aborts", "core.facts",
	"dom.handlers_ran", "progcache.hits", "progcache.lookups",
	"specialize.evals_eliminated", "ast.printed_bytes",
}

// passTimers maps span names to the per-layer metric of their per-pass
// total.
var passTimers = map[string]string{
	"pointsto.solve":    "pointsto.solve_ms",
	"core.exec":         "core.exec_ms",
	"dom.handlers":      "dom.handlers_ms",
	"progcache.compile": "progcache.compile_ms",
	"specialize":        "specialize.ms",
	"ast.print":         "ast.print_ms",
}

const replayRounds = 5

// passLayers turns a traced pass workload's spans and counts into its
// per-layer metrics, then replays the first pass's front-end misses and
// instrumented runs to time lex/parse/lower and the tree engine.
func passLayers(e *env, out *outcome, counts []map[string]float64, first *pipeline) error {
	for span, metric := range passTimers {
		out.layers[metric] = e.tr.perOp(span).median()
	}
	for _, name := range deterministicCounts {
		for i, c := range counts {
			if c[name] != counts[0][name] {
				out.fail(fmt.Errorf("count %s is %v in pass %d but %v in pass 0", name, c[name], i, counts[0][name]))
				break
			}
		}
		out.layers[name] = counts[0][name]
	}
	for _, name := range []string{"pointsto.nodes", "pointsto.objects", "pointsto.alloc_mb"} {
		var v sample
		for _, c := range counts {
			v = append(v, c[name])
		}
		out.layers[name] = v.median()
	}
	if p := out.layers["pointsto.propagations"]; p > 0 {
		out.layers["pointsto.ns_per_propagation"] = out.layers["pointsto.solve_ms"] * 1e6 / p
	}
	if n := counts[0]["progcache.lookups"]; n > 0 {
		out.layers["progcache.hit_ratio"] = counts[0]["progcache.hits"] / n
	}

	fe, instrs, err := frontEndSweep(first.misses, replayRounds)
	if err != nil {
		return err
	}
	for k, v := range fe {
		out.layers[k] = v
	}
	out.layers["ir.instrs"] = instrs
	tree, bytecode, err := engineReplay(first.dyns, replayRounds)
	if err != nil {
		return err
	}
	out.layers["core.exec_tree_ms"] = tree
	out.report = append(out.report, fmt.Sprintf(
		"engine replay of one pass's %d instrumented runs, %d rounds: tree %.4g ms, bytecode %.4g ms (a.Run only)",
		len(first.dyns), replayRounds, tree, bytecode))
	return nil
}
