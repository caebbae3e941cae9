package models

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRegistryHasAllElevenModels(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("registry has %d models: %v", len(names), names)
	}
	want := map[string]bool{
		"LeNet": true, "ResNet": true, "Inception": true,
		"LSTM": true, "LM": true,
		"TreeRNN": true, "TreeLSTM": true,
		"A3C": true, "PPO": true,
		"AN": true, "pix2pix": true,
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected model %q", n)
		}
	}
}

func TestTable2DynamicFeatureFlags(t *testing.T) {
	// The flags must match the paper's Table 2.
	type row struct{ dcf, dt, iff bool }
	want := map[string]row{
		"LeNet": {false, true, false}, "ResNet": {true, true, false},
		"Inception": {true, true, false},
		"LSTM":      {true, true, true}, "LM": {true, true, true},
		"TreeRNN": {true, true, true}, "TreeLSTM": {true, true, true},
		"A3C": {true, true, true}, "PPO": {false, true, true},
		"AN": {false, true, true}, "pix2pix": {false, true, true},
	}
	for name, w := range want {
		m, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.DCF != w.dcf || m.DT != w.dt || m.IF != w.iff {
			t.Errorf("%s flags DCF=%v DT=%v IF=%v, want %v %v %v",
				name, m.DCF, m.DT, m.IF, w.dcf, w.dt, w.iff)
		}
	}
}

// trainSteps runs n steps of a model under a config and returns the losses.
func trainSteps(t *testing.T, name string, cfg core.Config, n int) ([]float64, *core.Engine) {
	t.Helper()
	m, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(cfg)
	inst, err := m.Build(e, 42)
	if err != nil {
		t.Fatalf("%s build: %v", name, err)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		loss, err := inst.Step(i)
		if err != nil {
			t.Fatalf("%s step %d: %v", name, i, err)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("%s step %d loss %v", name, i, loss)
		}
		out = append(out, loss)
	}
	return out, e
}

// Every model must run under all three engines (except the documented trace
// failures) and produce finite losses. Janus must actually use graphs for
// convertible models.
func TestAllModelsRunOnImperativeEngine(t *testing.T) {
	for _, m := range All() {
		t.Run(m.Name, func(t *testing.T) {
			losses, _ := trainSteps(t, m.Name, core.Config{Mode: core.Imperative, LR: 0.05, Seed: 1}, 4)
			if len(losses) != 4 {
				t.Fatal("missing losses")
			}
		})
	}
}

func TestAllModelsRunOnJanusEngine(t *testing.T) {
	for _, m := range All() {
		t.Run(m.Name, func(t *testing.T) {
			cfg := core.DefaultJanusConfig()
			cfg.LR = 0.05
			cfg.Seed = 1
			_, e := trainSteps(t, m.Name, cfg, 7)
			if e.Stats().GraphSteps == 0 {
				t.Fatalf("%s never ran on the graph executor: %+v", m.Name, e.Stats())
			}
		})
	}
}

func TestModelsConvergeUnderJanus(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	// A representative subset must show decreasing loss under JANUS.
	for _, name := range []string{"LeNet", "LSTM", "TreeRNN"} {
		t.Run(name, func(t *testing.T) {
			cfg := core.DefaultJanusConfig()
			cfg.LR = 0.1
			cfg.Seed = 2
			losses, _ := trainSteps(t, name, cfg, 30)
			first := avg(losses[:5])
			last := avg(losses[len(losses)-5:])
			if last >= first {
				t.Fatalf("%s loss did not decrease: %.4f -> %.4f", name, first, last)
			}
		})
	}
}

func avg(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// How JANUS trains a model in one rung of the ablation ladder, as the
// engine decided it.
const (
	static     = "static"     // graphs carry their own gradient and update ops
	tape       = "tape"       // graphs are differentiated by the executor's trace tape
	imperative = "imperative" // nothing converts: every step is interpreted
)

// trainingMode reads the engine's static-vs-tape decision off its cached
// training graphs.
func trainingMode(e *core.Engine) string {
	if e.Stats().GraphSteps == 0 {
		return imperative
	}
	for _, c := range e.Cache().Inspect().EntryList {
		if !c.Static {
			return tape
		}
	}
	return static
}

// TestJanusMatchesImperativeOnAllModels: in every rung of {Unroll} ×
// {Specialize}, every model trains the same under JANUS as imperatively —
// per-step losses and final parameters within 1e-9 relative — since both
// engines run the same gradient rules and kernels. The engine alone decides
// static or tape gradients (graph.Gradients fails on what it cannot
// differentiate); the table pins that decision per rung.
func TestJanusMatchesImperativeOnAllModels(t *testing.T) {
	const steps = 8
	rungs := []struct {
		name               string
		unroll, specialize bool
	}{{"BASE", false, false}, {"UNRL", true, false}, {"SPCN", false, true}, {"UNRL+SPCN", true, true}}
	// want[model][i] is the training mode in rungs[i]. Without unrolling
	// (which also speculates on stable branches), ResNet's and Inception's
	// batch-norm conditional on self.training becomes Switch/Merge; LM and
	// LSTM name their variables from a str attribute, which only
	// specialization makes a build-time value; the TreeNNs recurse through
	// Invoke and Switch/Merge.
	want := map[string][4]string{
		"LeNet":     {static, static, static, static},
		"ResNet":    {tape, static, static, static},
		"Inception": {tape, static, static, static},
		"LSTM":      {imperative, imperative, static, static},
		"LM":        {imperative, imperative, static, static},
		"TreeRNN":   {tape, tape, tape, tape},
		"TreeLSTM":  {tape, tape, tape, tape},
		"A3C":       {static, static, static, static},
		"PPO":       {static, static, static, static},
		"AN":        {static, static, static, static},
		"pix2pix":   {static, static, static, static},
	}
	for _, m := range All() {
		t.Run(m.Name, func(t *testing.T) {
			impLosses, imp := trainSteps(t, m.Name, core.Config{Mode: core.Imperative, LR: 0.05, Seed: 9}, steps)
			for i, r := range rungs {
				t.Run(r.name, func(t *testing.T) {
					cfg := core.DefaultJanusConfig()
					cfg.LR = 0.05
					cfg.Seed = 9
					cfg.Unroll, cfg.Specialize = r.unroll, r.specialize
					janLosses, jan := trainSteps(t, m.Name, cfg, steps)
					if got := trainingMode(jan); got != want[m.Name][i] {
						t.Errorf("trains %s, want %s", got, want[m.Name][i])
					}
					for i := range impLosses {
						if !closeRel(impLosses[i], janLosses[i]) {
							t.Fatalf("step %d loss: imperative %.17g janus %.17g", i, impLosses[i], janLosses[i])
						}
					}
					names := imp.Store.Names()
					if got := jan.Store.Names(); len(got) != len(names) {
						t.Fatalf("parameters: imperative %v janus %v", names, got)
					}
					for _, name := range names {
						vi, vj := imp.Store.MustGet(name), jan.Store.MustGet(name)
						for k, x := range vi.Data() {
							if !closeRel(x, vj.Data()[k]) {
								t.Fatalf("%s[%d] after %d steps: imperative %.17g janus %.17g", name, k, steps, x, vj.Data()[k])
							}
						}
					}
				})
			}
		})
	}
}

// closeRel reports |a-b| <= 1e-9 * max(1, |a|, |b|).
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestTraceFailsOnTreeLSTMRecursion(t *testing.T) {
	m, _ := Get("TreeLSTM")
	e := core.NewEngine(core.Config{Mode: core.Trace, LR: 0.05, Seed: 3})
	inst, err := m.Build(e, 42)
	if err != nil {
		t.Fatal(err)
	}
	var stepErr error
	for i := 0; i < 3 && stepErr == nil; i++ {
		_, stepErr = inst.Step(i)
	}
	if stepErr == nil || !strings.Contains(stepErr.Error(), "recursive") {
		t.Fatalf("trace should fail on recursion, got %v", stepErr)
	}
}

func TestThroughputMeasurement(t *testing.T) {
	m, _ := Get("LeNet")
	cfg := core.DefaultJanusConfig()
	cfg.Seed = 4
	tput, err := Throughput(m, cfg, 42, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 {
		t.Fatalf("throughput %v", tput)
	}
}

func TestCurveRecordsMonotonicTime(t *testing.T) {
	m, _ := Get("LeNet")
	pts, _, err := Curve(m, core.Config{Mode: core.Imperative, LR: 0.05, Seed: 5}, 42, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Seconds < pts[i-1].Seconds {
			t.Fatal("time went backwards")
		}
	}
}

func TestRLEvalImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	m, _ := Get("A3C")
	cfg := core.DefaultJanusConfig()
	cfg.LR = 0.05
	cfg.Seed = 6
	e := core.NewEngine(cfg)
	inst, err := m.Build(e, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := inst.Step(i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	score, err := inst.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Fatalf("eval score %v", score)
	}
}
