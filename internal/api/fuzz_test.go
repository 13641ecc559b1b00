package api

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeGrid checks DecodeGrid on arbitrary bytes: it either
// fails or returns a grid whose canonical encoding decodes again and
// re-encodes to the same bytes. It must never panic — a submission is
// untrusted input to pwfserve.
func FuzzDecodeGrid(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "grid_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"v":1,"seed":1,"jobs":[{"workload":{"kind":"scu","s":1},"n":4611686018427387904,"steps":10,"warmup_fraction":0}]}`))
	f.Add([]byte(`{"v":1,"seed":7,"jobs":[{"workload":{"kind":"stack"},"n":4,"sched":"phased:3,1,1,1@50/1,1,1,3@50","steps":100,"warmup_fraction":0.1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, err := MarshalGrid(g)
		if err != nil {
			t.Fatalf("decoded grid does not encode: %v", err)
		}
		again, err := DecodeGrid(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("canonical encoding %s does not decode: %v", first, err)
		}
		second, err := MarshalGrid(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding differs:\n%s\n%s", first, second)
		}
	})
}
