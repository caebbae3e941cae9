package janus

import "repro/internal/tensor"

// Tensor aliases the runtime's dense CPU tensor so Feeds can be constructed
// — and Outputs consumed — without importing internal packages, which Go
// forbids from outside this module. The constructors below cover the feed
// shapes the handle API needs; the alias means values they return are
// interchangeable with every internal API that this package already exposes
// (Parameter, Outputs, Session.Call, ...).
type Tensor = tensor.Tensor

// NewTensor builds a tensor of the given shape from row-major flat data.
func NewTensor(shape []int, data []float64) *Tensor { return tensor.New(shape, data) }

// FromRows builds a 2-D tensor from rows (the common Feeds constructor: the
// leading dimension is the batch axis).
func FromRows(rows [][]float64) *Tensor { return tensor.FromRows(rows) }

// FromSlice builds a 1-D tensor.
func FromSlice(vs []float64) *Tensor { return tensor.FromSlice(vs) }

// ScalarTensor builds a rank-0 tensor holding one value.
func ScalarTensor(v float64) *Tensor { return tensor.Scalar(v) }
