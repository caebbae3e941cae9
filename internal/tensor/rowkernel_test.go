package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// mismatch returns the first index where got and want differ bit for bit,
// or -1. Any NaN matches any NaN: which payload survives when two NaNs meet
// depends on the hardware's operand order, not on the arithmetic.
func mismatch(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return i
		}
	}
	return -1
}

// specials are the values whose products and sums IEEE arithmetic treats
// specially.
var specials = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}

// randSpecial fills n values in [-1, 1), about one in seven replaced by a
// special value.
func randSpecial(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
		if rng.Intn(7) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// TestRowKernelMatchesGo compares the dispatched row kernel (the AVX2
// assembly where the CPU has it) with the pure-Go body bit for bit, across
// every column-chunk remainder, short and long k, padded strides and
// non-finite operands. On a CPU without AVX2 both sides run the Go body.
func TestRowKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 33, 72} {
		for _, k := range []int{1, 2, 3, 4, 5, 9, 16, 64} {
			for _, ldb := range []int{n, n + 3} {
				o := randSpecial(rng, n)
				a := randSpecial(rng, k)
				b := randSpecial(rng, (k-1)*ldb+n)
				got, want := slices.Clone(o), slices.Clone(o)
				rowKernel(got, a, b, ldb)
				rowKernelGo(want, a, b, ldb)
				if i := mismatch(got, want); i >= 0 {
					t.Fatalf("n=%d k=%d ldb=%d: column %d is %v, Go body %v", n, k, ldb, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRowKernelChecksBounds: the row kernel refuses, before touching
// memory, any call whose last row would run past b.
func TestRowKernelChecksBounds(t *testing.T) {
	o, a := make([]float64, 4), make([]float64, 3)
	cases := []struct {
		name string
		b    []float64
		ldb  int
	}{
		{"short b", make([]float64, 2*4+3), 4},
		{"negative stride", make([]float64, 64), -1},
		{"narrower than o", make([]float64, 3), 0},
		{"overflowing stride", make([]float64, 64), math.MaxInt / 2},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "row kernel") {
					t.Fatalf("%s: got %v, want a row kernel bounds panic", c.name, r)
				}
			}()
			rowKernel(o, a, c.b, c.ldb)
		}()
	}
	// Exactly long enough is fine, and an empty a reads nothing.
	rowKernel(o, a, make([]float64, 2*4+4), 4)
	rowKernel(o, nil, nil, -1)
}

// FuzzRowKernel: for any shape, stride and bit pattern, the dispatched row
// kernel equals the pure-Go body bit for bit, with NaN in the same cells.
func FuzzRowKernel(f *testing.F) {
	seed := func(vs ...float64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(uint8(16), uint8(9), uint8(0), seed(1.5, -2, 0.25, 3))
	f.Add(uint8(9), uint8(64), uint8(3), seed(math.Inf(1), 0, -1, math.NaN(), 1e-310))
	f.Add(uint8(3), uint8(1), uint8(7), seed(math.MaxFloat64, 2, -0.5))
	f.Fuzz(func(t *testing.T, cols, rows, pad uint8, data []byte) {
		n, k := int(cols%80), int(rows%48)
		ldb := n + int(pad%8)
		pos := 0
		next := func() float64 {
			if len(data) < 8 {
				return float64(pos) - 3.5
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[pos%(len(data)-7):]))
			pos += 5
			return v
		}
		fill := func(m int) []float64 {
			v := make([]float64, m)
			for i := range v {
				v[i] = next()
			}
			return v
		}
		o, a, b := fill(n), fill(k), fill(k*ldb+n)
		got, want := slices.Clone(o), slices.Clone(o)
		rowKernel(got, a, b, ldb)
		rowKernelGo(want, a, b, ldb)
		if i := mismatch(got, want); i >= 0 {
			t.Fatalf("n=%d k=%d ldb=%d: column %d is %v (%#x), Go body %v (%#x)", n, k, ldb, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	})
}
