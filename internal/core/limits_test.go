package core_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

func TestStepBudgetInstrumented(t *testing.T) {
	mod := ir.MustCompile("t.js", `while (true) { var x = 1; }`)
	a := core.New(mod, facts.NewStore(), core.Options{MaxSteps: 500})
	_, err := a.Run()
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestStackLimitInstrumented(t *testing.T) {
	mod := ir.MustCompile("t.js", `function f() { return f(); } f();`)
	a := core.New(mod, facts.NewStore(), core.Options{MaxDepth: 50})
	_, err := a.Run()
	if !errors.Is(err, core.ErrStack) {
		t.Fatalf("want ErrStack, got %v", err)
	}
}

func TestStackLimitConcrete(t *testing.T) {
	mod := ir.MustCompile("t.js", `function f() { return f(); } f();`)
	it := interp.New(mod, interp.Options{MaxDepth: 50})
	_, err := it.Run()
	if !errors.Is(err, interp.ErrStack) {
		t.Fatalf("want ErrStack, got %v", err)
	}
}

func TestBudgetInsideCounterfactualContained(t *testing.T) {
	// A counterfactual that would loop forever: the step budget fires
	// inside it; the analysis contains the failure conservatively instead
	// of crashing, and execution after the branch continues... the budget
	// error aborts the run, but the facts before it remain.
	mod := ir.MustCompile("t.js", `
		var before = 1 + 1;
		if (Math.random() > 2) {
			while (true) { var burn = 0; }
		}
		var after = 2 + 2;
	`)
	store := facts.NewStore()
	a := core.New(mod, store, core.Options{MaxSteps: 5000})
	_, err := a.Run()
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if store.Len() == 0 {
		t.Error("facts before the budget stop must survive")
	}
}

// TestIndetLoopBudgetTerminatesPromptly: a non-terminating loop under an
// indeterminate condition pushes one nested branch frame per iteration, and
// after the step budget fires every frame is popped, marked, and merged into
// its parent. That finish path must stay linear in the distinct locations
// written: wholesale journal concatenation made it quadratic in iteration
// count, hanging the analysis for minutes after ErrBudget. (Found by
// detfuzz, fuzz crasher 82c225e8a0038142.)
func TestIndetLoopBudgetTerminatesPromptly(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		var i = 0;
		var o = {a: 1, b: 2};
		while (Math.random() < 2) {
			i = i + 1;
			o.c = i;
			delete o.a;
			o.a = i;
		}
	`)
	a := core.New(mod, facts.NewStore(), core.Options{MaxSteps: 300000, MaxFlushes: 1 << 20})
	start := time.Now()
	_, err := a.Run()
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second*raceTimeMul {
		t.Fatalf("budget-aborted loop took %v to unwind", elapsed)
	}
}

// TestIndetLoopUnwindLinear checks that ending an indeterminate loop
// allocates memory linear in its iterations. Each iteration runs under its own ÎF1
// frame and writes a fresh property, so the frames' journals hold one new
// location per iteration; marking and merging them one level at a time
// copied the accumulated journal at every level, and allocation grew with
// the square of the iteration count.
func TestIndetLoopUnwindLinear(t *testing.T) {
	allocs := func(n int) uint64 {
		mod := ir.MustCompile("t.js", fmt.Sprintf(`
			var i = 0;
			var o = {};
			while (i < %d && Math.random() < 2) {
				o["p" + i] = i;
				i = i + 1;
			}
		`, n))
		best := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ {
			a := core.New(mod, facts.NewStore(), core.Options{MaxSteps: 1 << 30, MaxFlushes: 1 << 20})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := a.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const k = 1000
	small, large := allocs(k), allocs(2*k)
	if large >= 3*small {
		t.Errorf("%d iterations allocated %d bytes, %d iterations %d bytes (%.1f×): unwinding is not linear",
			k, small, 2*k, large, float64(large)/float64(small))
	}
}

func TestThrownErrorSurfacesValue(t *testing.T) {
	mod := ir.MustCompile("t.js", `throw new TypeError("kaput");`)
	a := core.New(mod, facts.NewStore(), core.Options{})
	_, err := a.Run()
	var th *core.Thrown
	if !errors.As(err, &th) {
		t.Fatalf("want Thrown, got %T %v", err, err)
	}
	if s := a.DisplayValue(th.Val); !strings.Contains(s, "kaput") {
		t.Errorf("thrown value renders as %q", s)
	}
}

func TestMuJSLocalsOptionSkipsEnvFlush(t *testing.T) {
	src := `(function(){
		var local = 7;
		var f = Math.random() < 2 ? function(){ return 1; } : function(){ return 2; };
		f();
		var probe = local;
	})();`
	// Default: the indeterminate call flushes environments too.
	mod, store, a := analyze(t, src, core.Options{})
	if a.Stats().EnvFlushes == 0 {
		t.Error("default mode must flush environments on indeterminate calls")
	}
	wantDet(t, oneFactAtLine(t, mod, store, 5, loadVar("local")), mod, false)

	// µJS-faithful mode keeps the local determinate (heap-only flush).
	modM, storeM, aM := analyze(t, src, core.Options{MuJSLocals: true})
	if aM.Stats().EnvFlushes != 0 {
		t.Error("µJS mode must not flush environments")
	}
	wantNum(t, oneFactAtLine(t, modM, storeM, 5, loadVar("local")), modM, 7)
}

func TestFactsNilStoreRunsForStatsOnly(t *testing.T) {
	mod := ir.MustCompile("t.js", `
		var fns = [function(){return 1;}, function(){return 2;}];
		fns[Math.random() < 0.5 ? 0 : 1]();
	`)
	a := core.New(mod, nil, core.Options{})
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().HeapFlushes == 0 {
		t.Error("stats must accumulate without a fact store")
	}
}
