package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"determinacy/internal/experiment"
	"determinacy/internal/obs"
	"determinacy/internal/specialize"
	"determinacy/internal/workload"
)

// bench0 holds the deterministic series of the checked-in BENCH_0.json,
// the reference the Table 1 and eval-study outputs must reproduce.
type bench0 struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

func loadBench0(root string) (*bench0, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCH_0.json"))
	if err != nil {
		return nil, err
	}
	var b bench0
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCH_0.json: %w", err)
	}
	return &b, nil
}

// seriesOf exports results through publish and returns the series whose
// names start with one of prefixes.
func seriesOf(publish func(*obs.Metrics), prefixes ...string) (*bench0, error) {
	m := obs.NewMetrics()
	publish(m)
	var b strings.Builder
	if err := m.WriteJSON(&b); err != nil {
		return nil, err
	}
	var got bench0
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		return nil, err
	}
	return got.only(prefixes...), nil
}

// only keeps the series named by prefixes, dropping timing series.
func (b *bench0) only(prefixes ...string) *bench0 {
	keep := func(name string) bool {
		if strings.Contains(name, "seconds") {
			return false
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	out := &bench0{Counters: map[string]int64{}, Gauges: map[string]float64{}}
	for k, v := range b.Counters {
		if keep(k) {
			out.Counters[k] = v
		}
	}
	for k, v := range b.Gauges {
		if keep(k) {
			out.Gauges[k] = v
		}
	}
	return out
}

// diff names the first series on which got and want disagree.
func (b *bench0) diff(want *bench0) error {
	for k, v := range want.Counters {
		if g, ok := b.Counters[k]; !ok || g != v {
			return fmt.Errorf("series %s = %d, BENCH_0 has %d", k, g, v)
		}
	}
	for k, v := range want.Gauges {
		if g, ok := b.Gauges[k]; !ok || g != v {
			return fmt.Errorf("series %s = %v, BENCH_0 has %v", k, g, v)
		}
	}
	if len(b.Counters) != len(want.Counters) || len(b.Gauges) != len(want.Gauges) {
		return fmt.Errorf("%d counters and %d gauges, BENCH_0 has %d and %d",
			len(b.Counters), len(b.Gauges), len(want.Counters), len(want.Gauges))
	}
	return nil
}

var table1Series = []string{"table1_propagations_total", "table1_completed", "table1_flushes"}

// table1 runs serial Table 1 passes: four jQuery versions × Baseline /
// Spec / Spec+DetDOM at the default points-to budget.
type table1 struct {
	want      *bench0
	rendering string
}

func setupTable1(e *env) (runner, error) {
	b0, err := loadBench0(e.root)
	if err != nil {
		return nil, err
	}
	t := &table1{want: b0.only(table1Series...)}
	t.rendering = experiment.FormatTable1(t.expectedRows())
	// Warm-up pass: code, heap and page cache settle before timing.
	if err := t.check(experiment.RunTable1(experiment.Config{Workers: 1})); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return t, nil
}

// expectedRows rebuilds the Table 1 rows BENCH_0 records, enough to
// render the table the way FormatTable1 does.
func (t *table1) expectedRows() []experiment.Table1Row {
	cell := func(v workload.JQueryVersion, config string) experiment.Table1Cell {
		labels := fmt.Sprintf(`{version=%q,config=%q}`, v, config)
		flushes := int(t.want.Gauges["table1_flushes"+labels])
		return experiment.Table1Cell{
			Completed:  t.want.Gauges["table1_completed"+labels] == 1,
			Flushes:    flushes,
			FlushLimit: flushes > maxFlushes,
		}
	}
	var rows []experiment.Table1Row
	for _, v := range workload.JQueryVersions {
		rows = append(rows, experiment.Table1Row{
			Version: v, Baseline: cell(v, "baseline"), Spec: cell(v, "spec"), DetDOM: cell(v, "spec_detdom"),
		})
	}
	return rows
}

// check compares a pass's rendering and deterministic series with BENCH_0.
func (t *table1) check(rows []experiment.Table1Row) error {
	if got := experiment.FormatTable1(rows); got != t.rendering {
		return fmt.Errorf("Table 1 rendering differs from BENCH_0:\n%s\nwant:\n%s", got, t.rendering)
	}
	got, err := seriesOf(func(m *obs.Metrics) { experiment.Table1Metrics(rows, m) }, table1Series...)
	if err != nil {
		return err
	}
	return got.diff(t.want)
}

func (t *table1) close() {}

func (t *table1) measure(e *env) (*outcome, error) {
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
		var rows []experiment.Table1Row
		var d time.Duration
		if e.tr == nil {
			d = timeIt(func() { rows = experiment.RunTable1(experiment.Config{Workers: 1}) })
		} else {
			p := newPipeline(e.tr, op)
			id, t0 := e.tr.begin(op, 0, "pass")
			rows = p.table1(id)
			d = e.tr.end(id, t0)
			counts = append(counts, p.counts)
			if first == nil {
				first = p
				p.cache = nil // keep the replay inputs, not the compiled programs
			}
		}
		passes = append(passes, ms(d))
		cpu = append(cpu, ms(cpuTime()-cpu0))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.rssMB = append(out.rssMB, rss)
		out.attempted++
		if err := t.check(rows); err != nil {
			out.fail(err)
		}
		if err := e.cal.maybe(); err != nil {
			return nil, err
		}
	}
	out.p50ms = passes.median()
	out.cpuMS = cpu.median()
	out.throughput = float64(out.attempted-out.failed) / (passes.sum() / 1000)
	out.report = append(out.report,
		fmt.Sprintf("table1_pass_s: %s (serial passes)", secondsOf(passes).describe("s")),
	)
	if e.tr != nil {
		if err := passLayers(e, out, counts, first); err != nil {
			return nil, err
		}
		var want int64
		for k, v := range t.want.Counters {
			if strings.HasPrefix(k, "table1_propagations_total") {
				want += v
			}
		}
		if got := out.layers["pointsto.propagations"]; got != float64(want) {
			out.fail(fmt.Errorf("pointsto.propagations per pass is %v, BENCH_0's table1_propagations_total series sum to %d", got, want))
		}
	}
	return out, nil
}

func secondsOf(s sample) sample {
	out := make(sample, len(s))
	for i, v := range s {
		out[i] = v / 1000
	}
	return out
}

// table1 is experiment.RunTable1 with Workers: 1, one layer call at a time.
func (p *pipeline) table1(parent int) []experiment.Table1Row {
	var rows []experiment.Table1Row
	for _, v := range workload.JQueryVersions {
		rows = append(rows, p.table1Row(parent, v))
	}
	return rows
}

// table1Row keeps experiment's error precedence: the first failing cell
// sets Err and the later cells stay zero.
func (p *pipeline) table1Row(parent int, v workload.JQueryVersion) experiment.Table1Row {
	row := experiment.Table1Row{Version: v}
	src := workload.JQuery(v)
	cell, err := p.baselineCell(parent, src)
	if err != nil {
		row.Err = err
		return row
	}
	row.Baseline = cell
	if cell, err = p.specCell(parent, src, false); err != nil {
		row.Err = err
		return row
	}
	row.Spec = cell
	if cell, err = p.specCell(parent, src, true); err != nil {
		row.Err = err
		return row
	}
	row.DetDOM = cell
	return row
}

func (p *pipeline) baselineCell(parent int, src string) (experiment.Table1Cell, error) {
	_, mod, err := p.compile(parent, "jquery.js", src)
	if err != nil {
		return experiment.Table1Cell{}, err
	}
	res, err := p.solve(parent, mod)
	if err != nil {
		return experiment.Table1Cell{}, err
	}
	return experiment.Table1Cell{Completed: !res.BudgetExceeded && res.Interrupted == nil, Propagations: res.Propagations}, nil
}

func (p *pipeline) specCell(parent int, src string, detDOM bool) (experiment.Table1Cell, error) {
	dyn, err := p.dynamic(parent, "workload.js", src, detDOM)
	if err != nil {
		return experiment.Table1Cell{}, err
	}
	if dyn.RunErr != nil {
		return experiment.Table1Cell{}, fmt.Errorf("dynamic run: %w", dyn.RunErr)
	}
	cell := experiment.Table1Cell{Flushes: dyn.Stats.HeapFlushes, FlushLimit: dyn.FlushLimit}
	res, specSrc, err := p.specializeAndPrint(parent, dyn, specialize.Options{})
	if err != nil {
		return cell, err
	}
	cell.SpecStats = res.Stats
	_, mod, err := p.compile(parent, "jquery-spec.js", specSrc)
	if err != nil {
		return cell, fmt.Errorf("specialized output does not compile: %w", err)
	}
	pt, err := p.solve(parent, mod)
	if err != nil {
		return cell, err
	}
	cell.Completed = !pt.BudgetExceeded && pt.Interrupted == nil
	cell.Propagations = pt.Propagations
	return cell, nil
}
