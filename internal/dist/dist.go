// Package dist models multi-device data-parallel training throughput for
// the paper's Figure 8 (§6.3.2). It is an analytical simulator, not a real
// cluster: per-step compute times and parameter counts are taken at paper
// scale, gradients are exchanged over a ring all-reduce on 100 Gbps links,
// and the engines differ only in whether communication overlaps backprop and
// in per-operation dispatch overhead — the same two effects the paper
// attributes the symbolic engine's scalability advantage to.
package dist

import "math"

// LinkBandwidth is the simulated interconnect, bytes/second (100 Gbps).
const LinkBandwidth = 100e9 / 8

// ClusterConfig describes one engine running data-parallel SGD on a
// simulated cluster.
type ClusterConfig struct {
	// Devices is the number of data-parallel replicas.
	Devices int
	// StepCompute is seconds of forward+backward compute per local step.
	StepCompute float64
	// GradBytes is the total gradient payload exchanged per step.
	GradBytes float64
	// Bandwidth is the interconnect in bytes/second; 0 selects LinkBandwidth
	// (the paper-scale 100 Gbps testbed).
	Bandwidth float64
	// Overlap reports whether gradient exchange overlaps backprop (graph
	// engines schedule collectives as soon as each layer's gradient is
	// ready; eager engines serialize them after the step).
	Overlap bool
	// Tensors is the number of gradient tensors (collective launches).
	Tensors int
	// EagerDispatch is per-collective dispatch overhead in seconds (eager
	// engines pay a Python-side launch per tensor; graph engines fuse it
	// into the executor and leave it zero).
	EagerDispatch float64
	// InputPipelineOverhead is extra per-step input-feeding cost in seconds
	// (eager engines re-stage feeds every step).
	InputPipelineOverhead float64
}

// commTime returns the ring all-reduce time for one step: each device sends
// and receives 2*(d-1)/d of the gradient payload.
func commTime(c ClusterConfig) float64 {
	if c.Devices <= 1 {
		return 0
	}
	bw := c.Bandwidth
	if bw <= 0 {
		bw = LinkBandwidth
	}
	d := float64(c.Devices)
	return 2 * (d - 1) / d * c.GradBytes / bw
}

// StepTime returns seconds per global step.
func StepTime(c ClusterConfig) float64 {
	comm := commTime(c)
	dispatch := float64(c.Tensors) * c.EagerDispatch
	if c.Devices <= 1 {
		dispatch = 0
	}
	t := c.StepCompute + c.InputPipelineOverhead + dispatch
	if c.Overlap {
		// Communication hides behind backprop (roughly half the step);
		// only the excess extends the step.
		if excess := comm - c.StepCompute/2; excess > 0 {
			t += excess
		}
		return t
	}
	return t + comm
}

// Throughput returns aggregate samples/second across the cluster.
func Throughput(c ClusterConfig, batch int) float64 {
	st := StepTime(c)
	if st <= 0 {
		return 0
	}
	return float64(c.Devices*batch) / st
}

// ScaleFactor returns scaling efficiency: aggregate throughput relative to
// Devices × the single-device throughput of the same configuration.
func ScaleFactor(c ClusterConfig, batch int) float64 {
	single := c
	single.Devices = 1
	base := Throughput(single, batch)
	if base <= 0 || c.Devices <= 0 {
		return 0
	}
	return Throughput(c, batch) / (float64(c.Devices) * base)
}

// BarrierFactor models the cost of a per-round barrier: a barriered round
// lasts as long as the slowest of d replicas' steps, so with per-step times
// varying with coefficient of variation cv (std/mean) the expected round
// time exceeds the mean step by roughly cv*sqrt(2*ln d) — the Gaussian
// order-statistics approximation for the expected maximum of d draws. The
// returned factor (>= 1) is how much slower a barriered engine runs than a
// free-running one whose throughput is bounded by the MEAN step time
// (asynchrony absorbs stragglers up to the staleness bound).
func BarrierFactor(devices int, cv float64) float64 {
	if devices <= 1 || cv <= 0 {
		return 1
	}
	return 1 + cv*math.Sqrt(2*math.Log(float64(devices)))
}
