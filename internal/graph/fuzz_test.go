package graph_test

import (
	"bytes"
	"math/bits"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Both decoders read bytes from outside the process: janusd snapshot
// artifacts and parameter-server shard snapshots. Whatever the bytes, a
// decode either errors or yields a value that re-encodes to a byte-for-byte
// fixpoint; it never panics.

func FuzzUnmarshalTensor(f *testing.F) {
	for _, nd := range graph.BuildSerializeFixture().Nodes {
		if t, ok := nd.Attrs["value"].(*tensor.Tensor); ok {
			b, err := graph.MarshalTensor(t)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Add([]byte(`{"shape":[],"data":"AAAAAAAA+D8="}`))
	f.Add([]byte(`{"shape":[0,3],"data":""}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tt, err := graph.UnmarshalTensor(data)
		if err != nil {
			return
		}
		n := uint64(1)
		for _, d := range tt.Shape() {
			hi, lo := bits.Mul64(n, uint64(d))
			if hi != 0 {
				t.Fatalf("decoded shape %v overflows", tt.Shape())
			}
			n = lo
		}
		if n != uint64(len(tt.Data())) {
			t.Fatalf("shape %v claims %d elements over %d", tt.Shape(), n, len(tt.Data()))
		}
		b1, err := graph.MarshalTensor(tt)
		if err != nil {
			t.Fatalf("decoded tensor does not re-encode: %v", err)
		}
		tt2, err := graph.UnmarshalTensor(b1)
		if err != nil {
			t.Fatalf("re-encoded tensor does not decode: %v\n%s", err, b1)
		}
		if b2, _ := graph.MarshalTensor(tt2); !bytes.Equal(b1, b2) {
			t.Fatalf("encoding is not a fixpoint:\n%s\nvs\n%s", b1, b2)
		}
	})
}

// FuzzUnmarshalGraph additionally installs the executor plan of every
// decoded graph, as the artifact loader does at boot.
func FuzzUnmarshalGraph(f *testing.F) {
	seed, err := graph.MarshalGraph(graph.BuildSerializeFixture())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"v":1,"nodes":[{"id":0,"op":"Placeholder","attrs":{"name":{"t":"str","s":"x"}}},{"id":1,"op":"Neg","in":[{"n":0}]}],"outputs":[{"n":1}]}`))
	f.Add([]byte(`{"v":1,"nodes":[{"id":0,"op":"Identity","in":[{"n":5}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.UnmarshalGraph(data)
		if err != nil {
			return
		}
		b1, err := graph.MarshalGraph(g)
		if err != nil {
			t.Fatalf("decoded graph does not re-encode: %v", err)
		}
		g2, err := graph.UnmarshalGraph(b1)
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v\n%s", err, b1)
		}
		if b2, _ := graph.MarshalGraph(g2); !bytes.Equal(b1, b2) {
			t.Fatalf("encoding is not a fixpoint:\n%s\nvs\n%s", b1, b2)
		}
		_ = exec.PrimePlan(g, nil) // an error is a valid outcome; a panic is not
	})
}
