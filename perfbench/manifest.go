package main

import (
	"bytes"
	"encoding/json"
	"os"
)

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured on every workload with tracing off; bound is the
// share of the parent's median a metric may worsen by before a change
// counts as a regression. They leave out wall-clock time and CPU time in
// milliseconds on purpose: on the shared 2-core host the benchmark was
// written on, other guests moved the wall-clock medians of ten runs by up
// to 41% between quartiles, and the host's own changes of speed moved the
// median CPU time per operation of two ten-seed sets made 20 minutes apart
// by 75-128%. The gated cost of an operation is its CPU time in units of a
// fixed calibration computation timed in the same run, and setup_s is
// scaled the same way (calibrate.go; README.md, "Host speed").
var endToEnd = []metricDoc{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"cpu_cal_per_op", "cal", "lower", 0.25},
}

// perLayer are reported by the traced run, every one on every workload; a
// layer the workload never calls reports 0.
var perLayer = []metricDoc{
	{Name: "traced.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "traced.throughput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "traced.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "traced.cpu_cal_per_op", Unit: "cal", Better: "lower"},
	{Name: "pointsto.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "pointsto.propagations", Unit: "count", Better: "lower"},
	{Name: "pointsto.nodes", Unit: "count", Better: "lower"},
	{Name: "pointsto.objects", Unit: "count", Better: "lower"},
	{Name: "pointsto.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "pointsto.ns_per_propagation", Unit: "ns", Better: "lower"},
	{Name: "core.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "core.exec_tree_ms", Unit: "ms", Better: "lower"},
	{Name: "core.steps", Unit: "count", Better: "lower"},
	{Name: "core.heap_flushes", Unit: "count", Better: "lower"},
	{Name: "core.counterfactuals", Unit: "count", Better: "lower"},
	{Name: "core.cf_aborts", Unit: "count", Better: "lower"},
	{Name: "core.facts", Unit: "count", Better: "higher"},
	{Name: "dom.handlers_ms", Unit: "ms", Better: "lower"},
	{Name: "dom.handlers_ran", Unit: "count", Better: "higher"},
	{Name: "lexer.lex_ms", Unit: "ms", Better: "lower"},
	{Name: "parser.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.instrs", Unit: "count", Better: "lower"},
	{Name: "progcache.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "progcache.hits", Unit: "count", Better: "higher"},
	{Name: "progcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "specialize.ms", Unit: "ms", Better: "lower"},
	{Name: "specialize.evals_eliminated", Unit: "count", Better: "higher"},
	{Name: "ast.print_ms", Unit: "ms", Better: "lower"},
	{Name: "ast.printed_bytes", Unit: "bytes", Better: "lower"},
	{Name: "factcache.hits", Unit: "count", Better: "higher"},
	{Name: "factcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "factcache.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "factcache.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "factcache.db_bytes", Unit: "bytes", Better: "lower"},
	{Name: "factcache.db_files", Unit: "count", Better: "lower"},
	{Name: "facts.render_ms", Unit: "ms", Better: "lower"},
	{Name: "facts.count", Unit: "count", Better: "higher"},
	{Name: "server.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.sheds", Unit: "count", Better: "lower"},
}

// runSeconds is how long one run measures. A run of table1 or evalstudy
// takes about runSeconds + 6 s, one of serve-mix about runSeconds + 25 s
// (its set-up analyzes every program it will send, three times).
const runSeconds = 25

// writeManifest writes BENCHMARK.json from the definitions above, so the
// file and the program cannot disagree.
func writeManifest(path string) error {
	var wl []workloadDoc
	for _, w := range workloads {
		wl = append(wl, workloadDoc{w.name, w.why})
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []metricDoc   `json:"end_to_end"`
		PerLayer   []metricDoc   `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, runSeconds, wl, endToEnd, perLayer}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
