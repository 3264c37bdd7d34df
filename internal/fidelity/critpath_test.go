package fidelity

import (
	"strings"
	"testing"

	"deuce/internal/exp"
	"deuce/internal/obs/span"
)

// TestGateCriticalPathReachesWearCells runs a traced gate over a cheap
// experiment and Figure 14, whose 48 Start-Gap wear cells dominate the
// real gate's wall clock, and requires the critical path to explain that
// time: it must descend from fidelity.check through plan.execute into a
// cell/wear span, not stop at the short evaluation step that ends last.
func TestGateCriticalPathReachesWearCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 14's 48 wear cells")
	}
	exp.ResetCache()
	t.Cleanup(exp.ResetCache)
	tr := span.New()
	rc := exp.RunConfig{Writebacks: 300, Lines: 64, Seed: 1, Spans: tr}
	if _, _, err := Check(rc, Filter(Expectations(), []string{"fig5", "fig14"})); err != nil {
		t.Fatal(err)
	}
	path := tr.Snapshot().CriticalPath()
	var names []string
	for _, n := range path {
		names = append(names, n.Name)
	}
	if len(path) == 0 || path[0].Name != "fidelity.check" {
		t.Fatalf("critical path %v does not start at fidelity.check", names)
	}
	exec := -1
	for i, n := range names {
		if n == "plan.execute" {
			exec = i
		}
		if n == "cell/wear" && exec >= 0 {
			return
		}
	}
	t.Errorf("critical path does not descend through plan.execute into a cell/wear: %s", strings.Join(names, " → "))
}
