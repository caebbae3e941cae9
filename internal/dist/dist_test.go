package dist

import "testing"

func TestOverlapHidesCommunication(t *testing.T) {
	// Communication smaller than half the step must vanish entirely under
	// overlap and extend the step without it.
	c := ClusterConfig{Devices: 4, StepCompute: 0.4, GradBytes: 100e6, Overlap: true, Tensors: 50}
	if got := StepTime(c); got != c.StepCompute {
		t.Fatalf("overlapped step %v, want pure compute %v", got, c.StepCompute)
	}
	c.Overlap = false
	if got := StepTime(c); got <= c.StepCompute {
		t.Fatalf("serialized step %v did not pay for communication", got)
	}
}

func TestScaleFactorNearLinearForGraphEngine(t *testing.T) {
	graph := ClusterConfig{Devices: 8, StepCompute: 0.3, GradBytes: 100e6, Overlap: true, Tensors: 160}
	eager := graph
	eager.Overlap = false
	eager.EagerDispatch = 3e-3
	gs, es := ScaleFactor(graph, 64), ScaleFactor(eager, 64)
	if gs < 0.95 {
		t.Fatalf("graph-engine scaling %v, want near-linear (>= 0.95)", gs)
	}
	if es >= gs {
		t.Fatalf("eager scaling %v not below graph scaling %v", es, gs)
	}
}

func TestBandwidthOverrideChangesCommTime(t *testing.T) {
	base := ClusterConfig{Devices: 4, StepCompute: 0.01, GradBytes: 50e6, Overlap: false}
	slow := base
	slow.Bandwidth = 1e9 // 12.5x slower than the 100 Gbps default
	if StepTime(slow) <= StepTime(base) {
		t.Fatalf("lower bandwidth did not slow the step: %v vs %v", StepTime(slow), StepTime(base))
	}
	// Zero keeps the paper default.
	if StepTime(base) != StepTime(ClusterConfig{Devices: 4, StepCompute: 0.01, GradBytes: 50e6}) {
		t.Fatal("zero bandwidth no longer selects the default link")
	}
}

func TestBarrierFactor(t *testing.T) {
	if got := BarrierFactor(1, 0.5); got != 1 {
		t.Fatalf("single device has no barrier cost: %v", got)
	}
	if got := BarrierFactor(4, 0); got != 1 {
		t.Fatalf("deterministic steps have no barrier cost: %v", got)
	}
	f4, f16 := BarrierFactor(4, 0.2), BarrierFactor(16, 0.2)
	if f4 <= 1 || f16 <= f4 {
		t.Fatalf("barrier cost must grow with devices: 4 -> %v, 16 -> %v", f4, f16)
	}
}
