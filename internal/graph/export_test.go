package graph

import "sort"

// BuildSerializeFixture exposes the round-trip fixture to the external test
// package, whose fuzz targets also import the executor.
var BuildSerializeFixture = buildSerializeFixture

// OpNames returns every registered op name, sorted, for the coverage check
// of the per-op gradient test.
func OpNames() []string {
	names := make([]string, 0, len(ops))
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SharedAttrs returns every attrs map the gradient rules share across
// calls: the ExtremumGrad and FillLike constants and the memoized Slice and
// SliceGrad maps built so far.
func SharedAttrs() []map[string]Val {
	out := []map[string]Val{fillSumAttrs, fillMeanAttrs}
	for _, byMax := range extremumAttrs {
		out = append(out, byMax[:]...)
	}
	sliceMemo.Lock()
	defer sliceMemo.Unlock()
	for _, m := range sliceMemo.m {
		out = append(out, m)
	}
	return out
}
