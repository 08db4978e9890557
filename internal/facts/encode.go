package facts

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"determinacy/internal/ir"
)

// wireFact is the JSON wire form of a fact.
type wireFact struct {
	Instr int      `json:"instr"`
	Ctx   [][2]int `json:"ctx,omitempty"`
	Seq   int      `json:"seq,omitempty"`
	Det   bool     `json:"det"`
	Val   wireSnap `json:"val"`
	Hits  int      `json:"hits,omitempty"`
}

type wireSnap struct {
	Kind int     `json:"kind"`
	Bool bool    `json:"bool,omitempty"`
	Num  float64 `json:"num,omitempty"`
	// NumS carries non-finite numbers ("NaN", "+Inf", "-Inf"), which JSON
	// has no literal for and encoding/json refuses to emit. Without it a
	// store holding a 0/0 fact could not be encoded at all.
	NumS    string `json:"nums,omitempty"`
	Str     string `json:"str,omitempty"`
	Alloc   int    `json:"alloc,omitempty"`
	FnIndex int    `json:"fn,omitempty"`
	Native  string `json:"native,omitempty"`
}

// encodeNum splits a float into its JSON-safe parts. Negative zero also
// travels as a string: omitempty drops a -0.0 Num field (it compares equal
// to zero), which would silently decode as +0.
func encodeNum(n float64) (float64, string) {
	switch {
	case math.IsNaN(n):
		return 0, "NaN"
	case math.IsInf(n, 1):
		return 0, "+Inf"
	case math.IsInf(n, -1):
		return 0, "-Inf"
	case n == 0 && math.Signbit(n):
		return 0, "-0"
	}
	return n, ""
}

func decodeNum(n float64, s string) float64 {
	switch s {
	case "NaN":
		return math.NaN()
	case "+Inf":
		return math.Inf(1)
	case "-Inf":
		return math.Inf(-1)
	case "-0":
		return math.Copysign(0, -1)
	}
	return n
}

// Encode writes the store as JSON lines, one fact per line, in recording
// order. The format is stable across runs of the same module (instruction
// IDs are deterministic), so cmd/detrun output can feed cmd/detspec.
func (s *Store) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, f := range s.All() {
		num, numS := encodeNum(f.Val.Num)
		wf := wireFact{
			Instr: int(f.Instr), Seq: f.Seq, Det: f.Det, Hits: f.Hits,
			Val: wireSnap{
				Kind: int(f.Val.Kind), Bool: f.Val.Bool, Num: num, NumS: numS,
				Str: f.Val.Str, Alloc: f.Val.Alloc, FnIndex: f.Val.FnIndex,
				Native: f.Val.Native,
			},
		}
		for _, e := range f.Ctx {
			wf.Ctx = append(wf.Ctx, [2]int{int(e.Site), e.Seq})
		}
		if err := enc.Encode(wf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a store previously written by Encode.
func Decode(r io.Reader) (*Store, error) {
	s := NewStore()
	if err := s.Load(r); err != nil {
		return nil, err
	}
	return s, nil
}

// Load replays facts written by Encode into s through Record, in their
// recording order; they join with any facts already present, with the
// usual join semantics.
func (s *Store) Load(r io.Reader) error {
	dec := json.NewDecoder(r)
	for {
		var wf wireFact
		if err := dec.Decode(&wf); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("facts: decode: %w", err)
		}
		var ctx Context
		for _, e := range wf.Ctx {
			ctx = append(ctx, ContextEntry{Site: ir.ID(e[0]), Seq: e[1]})
		}
		val := Snapshot{
			Kind: ValueKind(wf.Val.Kind), Bool: wf.Val.Bool,
			Num: decodeNum(wf.Val.Num, wf.Val.NumS),
			Str: wf.Val.Str, Alloc: wf.Val.Alloc, FnIndex: wf.Val.FnIndex,
			Native: wf.Val.Native,
		}
		s.Record(ir.ID(wf.Instr), ctx, wf.Seq, wf.Det, val)
		if wf.Hits > 1 {
			if f, ok := s.Lookup(ir.ID(wf.Instr), ctx, wf.Seq); ok {
				f.Hits = wf.Hits
			}
		}
	}
}

// Frozen is a compact, read-only copy of a store: its facts in recording
// order without the lookup index. A cache that hands out the same facts
// many times keeps them frozen and thaws a fresh Store per use, which is a
// copy rather than a replay through Record.
type Frozen struct {
	keys      []string
	facts     []Fact
	conflicts []string
	maxSeq    int
}

// Freeze copies the store into a Frozen; later changes to either side do
// not show in the other.
func (s *Store) Freeze() *Frozen {
	fz := &Frozen{
		keys:      append([]string(nil), s.order...),
		facts:     make([]Fact, len(s.order)),
		conflicts: append([]string(nil), s.Conflicts...),
		maxSeq:    s.MaxSeq,
	}
	for i, k := range s.order {
		fz.facts[i] = *s.m[k]
	}
	cloneContexts(fz.facts)
	return fz
}

// Thaw returns a new Store with the frozen facts, recording order, join
// states and hit counts. The caller owns it.
func (fz *Frozen) Thaw() *Store {
	s := &Store{
		m:         make(map[string]*Fact, len(fz.keys)),
		order:     append([]string(nil), fz.keys...),
		Conflicts: append([]string(nil), fz.conflicts...),
		MaxSeq:    fz.maxSeq,
		arena:     append([]Fact(nil), fz.facts...),
	}
	cloneContexts(s.arena)
	for i, k := range fz.keys {
		s.m[k] = &s.arena[i]
	}
	return s
}

// cloneContexts gives fs private copies of their contexts. Consecutive
// facts that shared a context (a frame records all its facts under one)
// keep sharing one copy.
func cloneContexts(fs []Fact) {
	var src, dst Context
	for i := range fs {
		c := fs[i].Ctx
		if len(c) == 0 {
			continue
		}
		if len(src) != len(c) || &src[0] != &c[0] {
			src, dst = c, c.Clone()
		}
		fs[i].Ctx = dst
	}
}

// Restrict returns a copy of the store containing only facts at program
// points below limit. Multi-run merging uses it to exclude runtime-lowered
// eval code, whose instruction IDs are not stable across executions.
func (s *Store) Restrict(limit ir.ID) *Store {
	out := NewStore()
	out.MaxSeq = s.MaxSeq
	for _, f := range s.All() {
		if f.Instr >= limit {
			continue
		}
		out.Record(f.Instr, f.Ctx, f.Seq, f.Det, f.Val)
		if nf, ok := out.Lookup(f.Instr, f.Ctx, f.Seq); ok {
			nf.Hits = f.Hits
		}
	}
	return out
}

// Generalize projects the store onto context-insensitive facts: a program
// point whose every observation (across all contexts and occurrences) is
// determinate with the same value yields one unqualified fact. This is the
// "shallower calling contexts" direction the paper's §7 sketches: such
// facts hold at the point under *any* stack.
func (s *Store) Generalize() *Store {
	out := NewStore()
	byInstr := map[ir.ID][]*Fact{}
	var order []ir.ID
	for _, f := range s.All() {
		if _, seen := byInstr[f.Instr]; !seen {
			order = append(order, f.Instr)
		}
		byInstr[f.Instr] = append(byInstr[f.Instr], f)
	}
	for _, id := range order {
		fs := byInstr[id]
		det := true
		val := fs[0].Val
		hits := 0
		for _, f := range fs {
			hits += f.Hits
			if !f.Det || !val.Equal(f.Val) {
				det = false
			}
		}
		out.Record(id, nil, 0, det, val)
		if f, ok := out.Lookup(id, nil, 0); ok {
			f.Hits = hits
		}
	}
	return out
}
