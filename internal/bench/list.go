package bench

// Experiment is one table or figure of the paper's evaluation: the name
// `ccai-bench -only` selects it by, and a function that regenerates and
// renders it under a cost model.
type Experiment struct {
	Name string
	Run  func(CostModel) (string, error)
}

// Experiments is the one list of paper experiments, in print order. The
// CLI, the testing.B sub-benchmarks and the docs all read it; srcRoot is
// the repository Table 3 measures its software LoC from.
func Experiments(srcRoot string) []Experiment {
	return []Experiment{
		{"table1", func(CostModel) (string, error) {
			return RenderTable1(Table1Categorization()), nil
		}},
		{"table2", func(CostModel) (string, error) {
			return RenderTable2(Table2Compatibility(), Table2Checks(true, true, true, true)), nil
		}},
		{"table3", rendered(func(CostModel) ([]Table3Row, error) { return Table3TCB(srcRoot) }, RenderTable3)},
		{"fig8", func(cm CostModel) (string, error) {
			fb, err := Figure8FixBatch(cm)
			if err != nil {
				return "", err
			}
			ft, err := Figure8FixToken(cm)
			if err != nil {
				return "", err
			}
			return RenderFig8("Figure 8a/c/e — fix-batch sweep (Llama-2-7B, A100, batch 1)", fb) + "\n" +
				RenderFig8("Figure 8b/d/f — fix-token sweep (Llama-2-7B, A100, 128 tokens)", ft), nil
		}},
		{"fig9", rendered(Figure9Models, RenderFig9)},
		{"fig10", rendered(Figure10XPUs, RenderFig10)},
		{"fig11", func(cm CostModel) (string, error) {
			tok, bat, err := Figure11Optimization(cm)
			if err != nil {
				return "", err
			}
			return RenderFig11(tok, bat), nil
		}},
		{"fig12a", rendered(Figure12aBandwidth, RenderFig12a)},
		{"decomposition", rendered(Figure11Decomposition, RenderDecomposition)},
		{"h100", rendered(H100Comparison, RenderH100Comparison)},
		{"breakdown", rendered(func(cm CostModel) ([]Breakdown, error) {
			var rows []Breakdown
			for _, prot := range []Protection{VanillaMode, CCAI, CCAINoOpt} {
				b, err := Explain(referenceWorkload(1), prot, cm)
				if err != nil {
					return nil, err
				}
				rows = append(rows, b)
			}
			return rows, nil
		}, RenderBreakdown)},
		{"serving", rendered(func(cm CostModel) ([]ServingRow, error) {
			return ServingExperiment(cm, []float64{0.25, 0.5, 1.0, 1.5, 1.8})
		}, RenderServing)},
		{"ablations", RenderAblations},
		{"fig12b", rendered(Figure12bKVCache, RenderFig12b)},
	}
}

// rendered pairs an experiment's row function with its renderer.
func rendered[T any](rows func(CostModel) (T, error), render func(T) string) func(CostModel) (string, error) {
	return func(cm CostModel) (string, error) {
		r, err := rows(cm)
		if err != nil {
			return "", err
		}
		return render(r), nil
	}
}
