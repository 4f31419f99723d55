package report

import (
	"bytes"
	"testing"
)

// FuzzBundleDecode throws arbitrary bytes at the strict bundle decoder — the
// single entry point for untrusted bundle bytes (files on disk, store
// entries, HTTP result bodies). Decode must never panic, and any bytes it
// accepts must re-encode canonically and decode again to the same identity.
func FuzzBundleDecode(f *testing.F) {
	valid := func(seed uint64) []byte {
		key := SpecKey{Workload: "synthetic", Seed: seed}
		h, err := key.Hash()
		if err != nil {
			f.Fatal(err)
		}
		b := Bundle{
			Schema:   SchemaVersion,
			SpecHash: h,
			Spec:     key,
			Counters: map[string]uint64{"x": seed},
			Floats:   map[string]float64{"y": 0.5},
		}
		data, err := b.MarshalCanonical()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	good := valid(1)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(bytes.Clone(good), `{"schema":2}`...))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":2}`))
	f.Add([]byte(`{"schema":1,"bogusField":true}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		out, err := b.MarshalCanonical()
		if err != nil {
			t.Fatalf("accepted bundle fails to re-marshal: %v", err)
		}
		b2, err := Decode(out)
		if err != nil {
			t.Fatalf("canonical re-encode fails to decode: %v", err)
		}
		if b2.SpecHash != b.SpecHash || b2.Schema != b.Schema {
			t.Fatal("bundle identity changed across a canonical round-trip")
		}
	})
}
