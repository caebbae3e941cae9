package graph

// BuildSerializeFixture exposes the round-trip fixture to the external test
// package, whose fuzz targets also import the executor.
var BuildSerializeFixture = buildSerializeFixture
