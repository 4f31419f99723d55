package service

import (
	"encoding/json"
	"strings"
	"testing"

	"baryon/internal/config"
)

// FuzzJobDecode throws arbitrary bytes at the HTTP job-decoding surface —
// the strict JSON decode every /api/v1/run and /api/v1/jobs body passes
// through, followed by Resolve against the base config. Nothing here may
// panic; every accepted job must resolve to a well-formed content-address
// or a client error.
func FuzzJobDecode(f *testing.F) {
	f.Add(`{"design":"Baryon","workload":"505.mcf_r","seed":1}`)
	f.Add(`{"design":"Baryon","workload":"505.mcf_r","mode":"flat","accesses":1000,"warmup":10}`)
	f.Add(`{"design":"NoSuchDesign","workload":"505.mcf_r"}`)
	f.Add(`{"design":"Baryon","workload":"505.mcf_r","cacheWays":4}`)
	f.Add(`{"design":"Baryon","workload":"505.mcf_r","seed":18446744073709551615}`)
	f.Add(`{`)
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	cfg := config.Scaled()
	cfg.AccessesPerCore = 1000
	s, err := New(Options{BaseConfig: &cfg})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		var job Job
		if err := dec.Decode(&job); err != nil {
			t.Skip() // malformed or unknown-field JSON: rejected at the handler
		}
		r, err := s.Resolve(job)
		if err != nil {
			return // client error, the 400 path
		}
		if !strings.HasPrefix(r.Hash, "sha256:") || len(r.Hash) != len("sha256:")+64 {
			t.Fatalf("accepted job resolved to a malformed content-address %q", r.Hash)
		}
	})
}

// verifyStoreBytes runs the full check a store entry passes on its first
// disk read in a process, checkStoreTrailer then checkStoreBundle, and
// returns the bundle bytes it carries.
func verifyStoreBytes(hash string, raw []byte) ([]byte, error) {
	data, _, err := checkStoreTrailer(raw)
	if err != nil {
		return nil, err
	}
	if err := checkStoreBundle(hash, data); err != nil {
		return nil, err
	}
	return data, nil
}

// FuzzStoreVerify throws arbitrary bytes at the verified disk-entry parser:
// verifyStoreBytes must never panic, and must only accept bytes whose
// trailer digest, bundle decode and spec hash all agree with the filed key.
func FuzzStoreVerify(f *testing.F) {
	key := "sha256:" + strings.Repeat("ab", 32)
	f.Add(key, []byte("{}\n"+storeTrailerPrefix+strings.Repeat("00", 32)+"\n"))
	f.Add(key, []byte(storeTrailerPrefix+"\n"))
	f.Add(key, []byte("bundle with no trailer"))
	f.Add(key, []byte{})
	f.Add(key, appendStoreTrailer([]byte("{\"schema\":1}\n")))
	f.Fuzz(func(t *testing.T, hash string, raw []byte) {
		data, err := verifyStoreBytes(hash, raw)
		if err != nil {
			return
		}
		// Accepted bytes must round-trip: re-appending the trailer to the
		// returned bundle bytes reproduces a verifiable entry.
		if _, err := verifyStoreBytes(hash, appendStoreTrailer(data)); err != nil {
			t.Fatalf("accepted entry fails re-verification: %v", err)
		}
	})
}
