package pointsto_test

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"determinacy/internal/ir"
	"determinacy/internal/pointsto"
	"determinacy/internal/workload"
)

// callGraph lists the call graph: one line per call site in site order,
// with the site's callees as ObjID:name sorted by ObjID.
func callGraph(res *pointsto.Result) string {
	sites := make([]int, 0, len(res.Callees))
	for site := range res.Callees {
		sites = append(sites, int(site))
	}
	sort.Ints(sites)
	var b strings.Builder
	for _, site := range sites {
		callees := slices.Clone(res.Callees[ir.ID(site)])
		slices.SortFunc(callees, byID)
		fmt.Fprintf(&b, "%d", site)
		for _, o := range callees {
			fmt.Fprintf(&b, " %d:%s", o.ID, o)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func byID(x, y *pointsto.Object) int { return cmp.Compare(x.ID, y.ID) }

// TestBaselineFixpointGolden pins the uncapped fixpoint of each jQuery
// baseline. Table 1's capped cells only ever show the budget plus one, so a
// solver change that miscounts work (or loses an edge) on the way to the
// fixpoint would hide there; this test sees it. The values were computed
// with the solver before wildcard loads were routed through summary nodes.
func TestBaselineFixpointGolden(t *testing.T) {
	want := []struct {
		v              workload.JQueryVersion
		props          int
		reachable, obj int
		digest         string
	}{
		{workload.JQ10, 315_609, 37, 269, "89d37fa1518dfb66"},
		{workload.JQ11, 317_913, 37, 272, "787088e909f012a2"},
		{workload.JQ12, 357, 4, 155, "4ba943dd88a317bc"},
		{workload.JQ13, 297_544, 37, 268, "2798060ec8495c0a"},
	}
	for _, w := range want {
		mod := ir.MustCompile("jquery.js", workload.JQuery(w.v))
		res := pointsto.Analyze(mod, pointsto.Options{Budget: 50_000_000})
		if res.BudgetExceeded {
			t.Fatalf("jQuery %s: budget exceeded", w.v)
		}
		digest := fmt.Sprintf("%x", sha256.Sum256([]byte(callGraph(res))))[:16]
		got := fmt.Sprintf("props=%d reachable=%d objects=%d digest=%s",
			res.Propagations, res.ReachableFuncs, res.NumObjects, digest)
		exp := fmt.Sprintf("props=%d reachable=%d objects=%d digest=%s",
			w.props, w.reachable, w.obj, w.digest)
		if got != exp {
			t.Errorf("jQuery %s fixpoint:\n got %s\nwant %s", w.v, got, exp)
		}
	}
}

// TestCappedSolveDeterministic solves each jQuery baseline at Table 1's
// budget several times. A capped solve stops part-way, so its state
// depends on the order work was done in; that order must not depend on
// map iteration. Each site's callees come out sorted by ObjID and the eval
// sites by site.
func TestCappedSolveDeterministic(t *testing.T) {
	for _, v := range workload.JQueryVersions {
		mod := ir.MustCompile("jquery.js", workload.JQuery(v))
		var first string
		for i := 0; i < 5; i++ {
			res := pointsto.Analyze(mod, pointsto.Options{Budget: 60_000})
			if !slices.IsSorted(res.EvalSites) {
				t.Fatalf("jQuery %s: eval sites not sorted: %v", v, res.EvalSites)
			}
			for site, callees := range res.Callees {
				if !slices.IsSortedFunc(callees, byID) {
					t.Fatalf("jQuery %s: callees of site %d not sorted by ObjID", v, site)
				}
			}
			got := fmt.Sprintf("nodes=%d objects=%d reachable=%d evals=%v\n%s",
				res.NumNodes, res.NumObjects, res.ReachableFuncs, res.EvalSites, callGraph(res))
			if i == 0 {
				first = got
				continue
			}
			if got == first {
				continue
			}
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(first, "\n")
			j := 0
			for j < len(gotLines)-1 && j < len(wantLines)-1 && gotLines[j] == wantLines[j] {
				j++
			}
			t.Fatalf("jQuery %s: solve %d differs from solve 0 at line %d:\n got %.200s", v, i, j, gotLines[j])
		}
	}
}
