package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// Op is the workload operation (Table 1 pass, study pass or request) the
// call belongs to; Parent links a layer call to the pass that caused it
// (0 = none). A span holds no pointers, so the garbage collector never
// scans the span buffer and tracing adds little to its work.
type span struct {
	ID, Parent, Op int32
	Name           uint16 // index into tracer.names
	Start, Dur     int64  // nanoseconds since the tracer started
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths share the traced ones' code.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	names  []string
	nameID map[string]uint16
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), nameID: map[string]uint16{}} }

// id interns a span name; callers hold t.mu.
func (t *tracer) id(name string) uint16 {
	id, ok := t.nameID[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = id
	}
	return id
}

// begin opens a span and returns its id and start time.
func (t *tracer) begin(op, parent int, name string) (int, time.Time) {
	now := time.Now()
	if t == nil {
		return 0, now
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: int32(parent), Op: int32(op), Name: t.id(name), Start: now.Sub(t.epoch).Nanoseconds()})
	return len(t.spans), now
}

// end closes span id opened at start and returns its duration.
func (t *tracer) end(id int, start time.Time) time.Duration {
	d := time.Since(start)
	if t == nil {
		return d
	}
	t.mu.Lock()
	t.spans[id-1].Dur = d.Nanoseconds()
	t.mu.Unlock()
	return d
}

// timed runs f inside a span.
func (t *tracer) timed(op, parent int, name string, f func()) time.Duration {
	id, start := t.begin(op, parent, name)
	f()
	return t.end(id, start)
}

// perOp sums the durations of the spans called name within each
// operation, in milliseconds; operations without such a span are absent.
func (t *tracer) perOp(name string) sample {
	id, ok := t.nameID[name]
	if !ok {
		return nil
	}
	sums := map[int32]float64{}
	var order []int32
	for _, s := range t.spans {
		if s.Name != id {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			order = append(order, s.Op)
		}
		sums[s.Op] += float64(s.Dur) / 1e6
	}
	out := make(sample, 0, len(order))
	for _, op := range order {
		out = append(out, sums[op])
	}
	return out
}

// write stores every span as one JSON line, gzip-compressed.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	type spanJSON struct {
		ID     int32  `json:"id"`
		Parent int32  `json:"parent,omitempty"`
		Op     int32  `json:"op"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		Dur    int64  `json:"dur_ns"`
	}
	for _, s := range t.spans {
		if err := enc.Encode(spanJSON{s.ID, s.Parent, s.Op, t.names[s.Name], s.Start, s.Dur}); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
