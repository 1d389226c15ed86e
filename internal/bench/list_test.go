package bench

import (
	"slices"
	"strings"
	"testing"
)

// TestExperimentsList pins the one experiment list: the fourteen names
// `ccai-bench -only` documents, each once, in print order, and every
// one renders a non-empty table under the default cost model.
func TestExperimentsList(t *testing.T) {
	const printOrder = "table1,table2,table3,fig8,fig9,fig10,fig11,fig12a,decomposition,h100,breakdown,serving,ablations,fig12b"
	var names []string
	for _, e := range Experiments("../..") {
		if slices.Contains(names, e.Name) {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		names = append(names, e.Name)
		out, err := e.Run(Defaults())
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		if strings.Count(out, "\n") < 3 || !strings.HasSuffix(out, "\n") {
			t.Errorf("%s: rendered %q, want a titled table", e.Name, out)
		}
	}
	if got := strings.Join(names, ","); got != printOrder {
		t.Errorf("experiments = %s\nwant          %s", got, printOrder)
	}
}
