// Command janusbench regenerates every table and figure of the paper's
// evaluation section (§6) against this reproduction:
//
//	janusbench -experiment table2      # model × dynamic-feature matrix
//	janusbench -experiment table3      # single-device training throughput
//	janusbench -experiment fig6        # convergence curves on 4 engines
//	janusbench -experiment fig7        # ablation IMP→BASE→+UNRL→+SPCN→+PARL
//	janusbench -experiment fig8        # multi-device scalability (simulated)
//	janusbench -experiment assertcost  # §6.3.1 assertion-overhead check
//	janusbench -experiment all
//
// Absolute numbers differ from the paper (this substrate is a pure-Go
// simulator, not a TITAN Xp testbed); the comparisons — who wins, by what
// rough factor, where the failures land — are the reproduction targets.
//
// The paper's evaluation is all this command does. Speed is measured by
// bench/run.sh (BENCHMARK.json); correctness is gated by go test.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/tensor"
)

func main() {
	exp := flag.String("experiment", "all", "table2|table3|fig6|fig7|fig8|assertcost|all")
	steps := flag.Int("steps", 20, "measured steps per configuration")
	warmup := flag.Int("warmup", 6, "warmup steps (covers profiling + conversion)")
	flag.Parse()

	run := func(name string, f func(int, int)) {
		fmt.Printf("\n========== %s ==========\n", name)
		f(*warmup, *steps)
	}
	switch *exp {
	case "table2":
		run("Table 2: dynamic features per model", table2)
	case "table3":
		run("Table 3: single-device training throughput", table3)
	case "fig6":
		run("Figure 6: convergence on four engines", fig6)
	case "fig7":
		run("Figure 7: optimization ablation", fig7)
	case "fig8":
		run("Figure 8: multi-device scalability (simulated cluster)", fig8)
	case "assertcost":
		run("Assertion cost (§6.3.1)", assertCost)
	case "all":
		run("Table 2: dynamic features per model", table2)
		run("Table 3: single-device training throughput", table3)
		run("Figure 6: convergence on four engines", fig6)
		run("Figure 7: optimization ablation", fig7)
		run("Figure 8: multi-device scalability (simulated cluster)", fig8)
		run("Assertion cost (§6.3.1)", assertCost)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func mark(b bool) string {
	if b {
		return "Y"
	}
	return "-"
}

func table2(_, _ int) {
	fmt.Printf("%-10s %-8s %-12s %3s %4s %4s %4s\n", "Model", "Category", "Units", "BS", "DCF", "DT", "IF")
	for _, m := range models.All() {
		fmt.Printf("%-10s %-8s %-12s %3d %4s %4s %4s\n",
			m.Name, m.Category, m.Units, m.BatchSize, mark(m.DCF), mark(m.DT), mark(m.IF))
	}
}

// engineConfigs returns the Table 3 engine set. The Sym column is realized
// as guard-free graph execution: the converter emits the same operations a
// hand-written symbolic program would, so JANUS minus assertion checking is
// the hand-built-graph baseline (see DESIGN.md §5).
func engineConfigs() map[string]core.Config {
	imp := core.Config{Mode: core.Imperative, LR: 0.05}
	jan := core.DefaultJanusConfig()
	jan.LR = 0.05
	sym := jan
	sym.DisableAsserts = true
	sym.ProfileIters = 1
	return map[string]core.Config{"Imp": imp, "JANUS": jan, "Sym": sym}
}

func table3(warmup, steps int) {
	cfgs := engineConfigs()
	fmt.Printf("%-10s %12s %12s %12s %9s %9s  %s\n",
		"Model", "Imp(A)", "JANUS(B)", "Sym(C)", "B/A", "B/C-1", "units")
	for _, m := range models.All() {
		row := map[string]float64{}
		for name, cfg := range cfgs {
			t, err := models.Throughput(m, cfg, 42, warmup, steps)
			if err != nil {
				fmt.Printf("%-10s %s failed: %v\n", m.Name, name, err)
				t = 0
			}
			row[name] = t
		}
		speedup, gap := 0.0, 0.0
		if row["Imp"] > 0 {
			speedup = row["JANUS"] / row["Imp"]
		}
		if row["Sym"] > 0 {
			gap = row["JANUS"]/row["Sym"] - 1
		}
		fmt.Printf("%-10s %12.1f %12.1f %12.1f %8.2fx %8.1f%%  %s\n",
			m.Name, row["Imp"], row["JANUS"], row["Sym"], speedup, gap*100, m.Units)
	}
}

func fig6(_, steps int) {
	// The five panels: ResNet, LM, TreeLSTM, PPO, AN on four engines.
	panels := []string{"ResNet", "LM", "TreeLSTM", "PPO", "AN"}
	engines := []struct {
		name string
		cfg  core.Config
	}{
		{"janus", func() core.Config { c := core.DefaultJanusConfig(); c.LR = 0.05; return c }()},
		{"symbolic", func() core.Config {
			c := core.DefaultJanusConfig()
			c.LR = 0.05
			c.DisableAsserts = true
			c.ProfileIters = 1
			return c
		}()},
		{"imperative", core.Config{Mode: core.Imperative, LR: 0.05}},
		{"trace", core.Config{Mode: core.Trace, LR: 0.05}},
	}
	n := steps * 3
	for _, panel := range panels {
		m, err := models.Get(panel)
		if err != nil {
			fmt.Println(err)
			continue
		}
		fmt.Printf("\n--- %s (loss trajectory, %d steps) ---\n", panel, n)
		for _, eng := range engines {
			pts, _, err := models.Curve(m, eng.cfg, 42, n)
			if err != nil {
				fmt.Printf("%-11s FAILS: %v\n", eng.name, truncate(err.Error(), 90))
				continue
			}
			var sb strings.Builder
			for i := 0; i < len(pts); i += max(1, len(pts)/6) {
				fmt.Fprintf(&sb, " %.3f@%.2fs", pts[i].Loss, pts[i].Seconds)
			}
			fmt.Printf("%-11s%s\n", eng.name, sb.String())
		}
	}
	fmt.Println("\nNote: trace either fails (TreeLSTM recursion) or silently trains with")
	fmt.Println("stale state/branches; compare its trajectory against imperative/janus.")
}

// fig7 climbs the paper's ablation ladder. Every rung but the last runs its
// kernels on one goroutine; +PARL lets them split across every CPU — the
// executor itself always runs a graph's nodes in one topological pass.
func fig7(warmup, steps int) {
	type stage struct {
		name    string
		cfg     core.Config
		threads int // tensor kernel parallelism
	}
	mk := func(unroll, spcn bool) core.Config {
		return core.Config{Mode: core.Janus, LR: 0.05, ProfileIters: 3, Unroll: unroll, Specialize: spcn}
	}
	stages := []stage{
		{"IMP", core.Config{Mode: core.Imperative, LR: 0.05}, 1},
		{"BASE", mk(false, false), 1},
		{"+UNRL", mk(true, false), 1},
		{"+SPCN", mk(true, true), 1},
		{"+PARL", mk(true, true), runtime.NumCPU()},
	}
	defer tensor.SetKernelParallelism(tensor.SetKernelParallelism(1))
	fmt.Printf("%-10s", "Model")
	for _, s := range stages {
		fmt.Printf(" %10s", s.name)
	}
	fmt.Printf(" %9s\n", "total")
	for _, m := range models.All() {
		fmt.Printf("%-10s", m.Name)
		var imp, last float64
		for _, s := range stages {
			tensor.SetKernelParallelism(s.threads)
			t, err := models.Throughput(m, s.cfg, 42, warmup, steps)
			if err != nil {
				t = 0
			}
			if s.name == "IMP" {
				imp = t
			}
			last = t
			if imp > 0 {
				fmt.Printf(" %9.2fx", t/imp)
			} else {
				fmt.Printf(" %10s", "-")
			}
		}
		if imp > 0 {
			fmt.Printf(" %8.2fx\n", last/imp)
		} else {
			fmt.Println()
		}
	}
}

func fig8(_, _ int) {
	// The simulator runs at the paper's testbed scale: per-step compute
	// times derived from the paper's single-GPU throughput (Table 3: e.g.
	// ResNet50 at 200 images/s with batch 64 → 0.32 s/step), paper-scale
	// parameter counts, 100 Gbps links. The engines differ only in overlap
	// and per-collective dispatch, exactly as in §6.3.2.
	panels := []struct {
		model   string
		devices []int
		params  float64 // parameter count (paper scale)
		step    float64 // seconds per local step (paper scale)
		batch   int
		tensors int
	}{
		{"ResNet", []int{1, 3, 6, 12, 24, 36}, 25e6, 0.32, 64, 161},
		{"Inception", []int{1, 3, 6, 12, 24, 36}, 24e6, 0.54, 64, 190},
		{"LM", []int{1, 2, 3, 6, 12}, 0.83e9, 0.13, 256, 24},
		{"PPO", []int{1, 2, 3, 4, 5, 6}, 1e5, 0.20, 256, 8},
	}
	for _, p := range panels {
		gradBytes := p.params * 4 // fp32 gradients at paper scale
		fmt.Printf("\n--- %s (step %.2fs, %.0fM params, batch %d) ---\n",
			p.model, p.step, p.params/1e6, p.batch)
		fmt.Printf("%8s %18s %18s %14s\n", "devices", "janus/sym (scale)", "imperative (scale)", "speedup")
		for _, d := range p.devices {
			graphCfg := dist.ClusterConfig{Devices: d, StepCompute: p.step,
				GradBytes: gradBytes, Overlap: true, Tensors: p.tensors}
			eagerCfg := dist.ClusterConfig{Devices: d, StepCompute: p.step * 1.1,
				GradBytes: gradBytes, Overlap: false, Tensors: p.tensors,
				EagerDispatch: 3e-3, InputPipelineOverhead: p.step * 0.05}
			g := dist.Throughput(graphCfg, p.batch)
			e := dist.Throughput(eagerCfg, p.batch)
			fmt.Printf("%8d %10.1f (%.2f) %10.1f (%.2f) %12.2fx\n",
				d, g, dist.ScaleFactor(graphCfg, p.batch),
				e, dist.ScaleFactor(eagerCfg, p.batch), g/e)
		}
	}
}

func assertCost(warmup, steps int) {
	fmt.Printf("%-10s %14s %14s %10s\n", "Model", "with asserts", "no asserts", "overhead")
	for _, name := range []string{"LeNet", "LSTM", "TreeRNN"} {
		m, err := models.Get(name)
		if err != nil {
			continue
		}
		on := core.DefaultJanusConfig()
		on.LR = 0.05
		off := on
		off.DisableAsserts = true
		tOn, err1 := models.Throughput(m, on, 42, warmup, steps)
		tOff, err2 := models.Throughput(m, off, 42, warmup, steps)
		if err1 != nil || err2 != nil {
			fmt.Printf("%-10s failed: %v %v\n", name, err1, err2)
			continue
		}
		fmt.Printf("%-10s %14.1f %14.1f %9.1f%%\n", name, tOn, tOff, (tOff/tOn-1)*100)
	}
	fmt.Println("(paper: assertion effect negligible — asserts run in parallel with the model)")
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
