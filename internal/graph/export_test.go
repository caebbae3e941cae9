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
