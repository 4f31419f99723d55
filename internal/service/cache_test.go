package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// storeCorruptions lists every way a store entry can rot: truncation, a
// flipped byte, a stripped trailer, and a valid entry filed under the wrong
// hash.
var storeCorruptions = []struct {
	name    string
	corrupt func(t *testing.T, path string)
}{
	{"truncated", func(t *testing.T, path string) {
		raw := mustRead(t, path)
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"bitflip", func(t *testing.T, path string) {
		raw := mustRead(t, path)
		raw[len(raw)/3] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"no trailer", func(t *testing.T, path string) {
		raw := mustRead(t, path)
		idx := bytes.LastIndexByte(raw[:len(raw)-1], '\n')
		if err := os.WriteFile(path, raw[:idx+1], 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"cross-wired", func(t *testing.T, path string) {
		// A perfectly valid entry — for a different spec. The trailer
		// digest passes; only the spec-hash check can catch it.
		_, other := fakeBundle(t, 99)
		if err := os.WriteFile(path, appendStoreTrailer(other), 0o644); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestStoreCorruptionQuarantined covers the verified disk layer: every
// storeCorruptions case must read as a miss, move the file into quarantine/,
// and self-heal on the next Put with recomputed bytes.
func TestStoreCorruptionQuarantined(t *testing.T) {
	for _, tc := range storeCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var log bytes.Buffer
			seed, err := NewStore(StoreConfig{Dir: dir, Log: &log})
			if err != nil {
				t.Fatal(err)
			}
			hash, data := fakeBundle(t, 1)
			seed.Put(hash, data)
			tc.corrupt(t, seed.path(hash))

			c, err := NewStore(StoreConfig{Dir: dir, Log: &log})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(hash); ok {
				t.Fatal("corrupt store entry was served")
			}
			st := c.Stats()
			if st.Corrupt != 1 || st.Quarantined != 1 {
				t.Fatalf("stats = %+v, want 1 corrupt and 1 quarantined", st)
			}
			if _, err := os.Stat(seed.path(hash)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatal("corrupt entry still under its published name")
			}
			qnames, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil || len(qnames) != 1 {
				t.Fatalf("quarantine dir: %v, %d entries, want 1", err, len(qnames))
			}
			if !strings.Contains(log.String(), "quarantined") {
				t.Fatalf("no quarantine diagnostic in log: %s", log.String())
			}
			// Self-heal: the deterministic run recomputes identical bytes, Put
			// rewrites the entry, and a fresh store verifies it clean.
			c.Put(hash, data)
			c2, err := NewStore(StoreConfig{Dir: dir, Log: &log})
			if err != nil {
				t.Fatal(err)
			}
			got, ok := c2.Get(hash)
			if !ok || !bytes.Equal(got, data) {
				t.Fatal("rewritten entry not served byte-identically")
			}
			if st := c2.Stats(); st.Corrupt != 0 {
				t.Fatalf("healed store still reports corruption: %+v", st)
			}
		})
	}
}

// TestStoreVerifiesOnce: a disk read of bytes that already passed the full
// check in this process re-checks only the trailer. With a 1-entry LRU every
// read below is a disk read, yet each entry is decoded once.
func TestStoreVerifiesOnce(t *testing.T) {
	const n = 4
	c, err := NewStore(StoreConfig{Entries: 1, Dir: t.TempDir(), Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	var hashes []string
	for i := range n {
		hash, data := fakeBundle(t, uint64(i+1))
		c.Put(hash, data)
		want[hash] = data
		hashes = append(hashes, hash)
	}
	if st := c.Stats(); st.Verified != 0 {
		t.Fatalf("Put recorded %d verifications, want 0", st.Verified)
	}
	for range 2 {
		for _, hash := range hashes {
			got, ok := c.Get(hash)
			if !ok || !bytes.Equal(got, want[hash]) {
				t.Fatalf("Get(%s) = %v, wrong bytes", hash, ok)
			}
		}
	}
	st := c.Stats()
	if st.DiskHits != 2*n || st.Verified != n {
		t.Fatalf("stats = %+v, want %d disk hits and %d full verifications", st, 2*n, n)
	}
}

// TestStoreRotAfterVerification: an entry that rots on disk after this
// process verified it must still read as a miss and be quarantined, because
// every disk read re-checks the trailer and a changed digest runs the full
// check. The healed entry is verified in full again.
func TestStoreRotAfterVerification(t *testing.T) {
	for _, tc := range storeCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewStore(StoreConfig{Entries: 1, Dir: dir, Log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			hash, data := fakeBundle(t, 1)
			filler, fillerData := fakeBundle(t, 2)
			c.Put(hash, data)
			c.Put(filler, fillerData) // evicts hash from the LRU
			if got, ok := c.Get(hash); !ok || !bytes.Equal(got, data) {
				t.Fatal("entry not served from disk before the rot")
			}
			c.Get(filler) // evicts the verified entry again
			if st := c.Stats(); st.Verified != 2 {
				t.Fatalf("stats = %+v, want 2 full verifications", st)
			}

			tc.corrupt(t, c.path(hash))
			if _, ok := c.Get(hash); ok {
				t.Fatal("entry that rotted after verification was served")
			}
			st := c.Stats()
			if st.Corrupt != 1 || st.Quarantined != 1 {
				t.Fatalf("stats = %+v, want 1 corrupt and 1 quarantined", st)
			}
			qnames, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil || len(qnames) != 1 {
				t.Fatalf("quarantine dir: %v, %d entries, want 1", err, len(qnames))
			}

			c.Put(hash, data)
			c.Get(filler)
			if got, ok := c.Get(hash); !ok || !bytes.Equal(got, data) {
				t.Fatal("rewritten entry not served byte-identically")
			}
			if st := c.Stats(); st.Verified != 3 {
				t.Fatalf("stats = %+v, want the healed entry verified in full (3)", st)
			}
		})
	}
}

// TestStoreVerifiedMemoBound: with more distinct entries than the memo
// holds, it stays within cap*verifiedPerEntry digests, and every read still
// returns the bytes Put stored.
func TestStoreVerifiedMemoBound(t *testing.T) {
	const entries = 2
	limit := entries * verifiedPerEntry
	c, err := NewStore(StoreConfig{Entries: entries, Dir: t.TempDir(), Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	var hashes []string
	for i := range 2*limit + 3 {
		hash, data := fakeBundle(t, uint64(i+1))
		c.Put(hash, data)
		want[hash] = data
		hashes = append(hashes, hash)
	}
	for round := range 2 {
		for _, hash := range hashes {
			got, ok := c.Get(hash)
			if !ok || !bytes.Equal(got, want[hash]) {
				t.Fatalf("round %d: Get(%s) = %v, wrong bytes", round, hash, ok)
			}
			c.mu.Lock()
			size := len(c.verifiedSums)
			c.mu.Unlock()
			if size > limit {
				t.Fatalf("verified memo holds %d digests, bound %d", size, limit)
			}
		}
	}
	if st := c.Stats(); st.Verified <= uint64(len(hashes)) {
		t.Fatalf("stats = %+v: a memo over its bound must forget and re-verify", st)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestStoreRecoverySweepsTmp is the kill-mid-write test: a crashed writer
// leaves an orphaned *.tmp in the bundle directory, and the next startup's
// recovery scan must sweep it, count it, log a summary, and leave intact
// entries untouched.
func TestStoreRecoverySweepsTmp(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewStore(StoreConfig{Entries: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hash, data := fakeBundle(t, 1)
	seed.Put(hash, data)
	// What a kill -9 between WriteFileSync and Rename leaves behind.
	tmp := filepath.Join(dir, "sha256-feedface.bundle.json.tmp")
	if err := os.WriteFile(tmp, []byte("torn half-written bundle"), 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	c, err := NewStore(StoreConfig{Dir: dir, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("orphaned tmp file survived the recovery scan")
	}
	if st := c.Stats(); st.RecoveredTmp != 1 {
		t.Fatalf("stats = %+v, want 1 recovered tmp", st)
	}
	if !strings.Contains(log.String(), "store recovery") ||
		!strings.Contains(log.String(), "swept 1 orphaned tmp") {
		t.Fatalf("recovery summary missing from log: %s", log.String())
	}
	got, ok := c.Get(hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("intact entry lost across recovery")
	}
}

// TestStorePutDiskFailureDegrades is the write-through regression test: a
// failing disk write must never fail the job — the result is served from
// memory, the store flips to degraded mode (counted and logged), and the
// next successful write restores persistence.
func TestStorePutDiskFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	var log bytes.Buffer
	c, err := NewStore(StoreConfig{Dir: dir, Log: &log, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	hash, data := fakeBundle(t, 1)

	ffs.Fail("write", errors.New("disk full"))
	c.Put(hash, data)
	got, ok := c.Get(hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("result not served from memory after a disk-write failure")
	}
	if !c.Degraded() {
		t.Fatal("store not degraded after a disk-write failure")
	}
	st := c.Stats()
	if st.DiskErrors != 1 || !st.Degraded {
		t.Fatalf("stats = %+v, want 1 disk error and degraded", st)
	}
	if !strings.Contains(log.String(), "memory-only") {
		t.Fatalf("no degradation diagnostic in log: %s", log.String())
	}
	if _, err := os.Stat(c.path(hash)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("failed write still published a file")
	}

	ffs.Heal("write")
	hash2, data2 := fakeBundle(t, 2)
	c.Put(hash2, data2)
	if c.Degraded() {
		t.Fatal("store still degraded after a successful write")
	}
	if !strings.Contains(log.String(), "recovered") {
		t.Fatalf("no recovery diagnostic in log: %s", log.String())
	}
	// The healed write is durable: a fresh store over the same dir serves it.
	c2, err := NewStore(StoreConfig{Dir: dir, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := c2.Get(hash2)
	if !ok || !bytes.Equal(got2, data2) {
		t.Fatal("post-recovery entry not durable")
	}
}

// TestStorePutRenameFailureCleansTmp: a failed publishing rename degrades the
// store and removes its tmp file instead of leaving an orphan.
func TestStorePutRenameFailureCleansTmp(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	var log bytes.Buffer
	c, err := NewStore(StoreConfig{Dir: dir, Log: &log, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	hash, data := fakeBundle(t, 1)
	ffs.Fail("rename", nil)
	c.Put(hash, data)
	if !c.Degraded() {
		t.Fatal("store not degraded after a rename failure")
	}
	if _, err := os.Stat(c.path(hash) + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("failed rename left its tmp file behind")
	}
	if _, ok := c.Get(hash); !ok {
		t.Fatal("result lost from memory")
	}
}

// TestStoreReadErrorCounted: a disk read failing with anything other than
// not-exist is a counted disk error and a miss — not a quarantine (the bytes
// might be fine; the medium hiccuped).
func TestStoreReadErrorCounted(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	seed, err := NewStore(StoreConfig{Dir: dir, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	hash, data := fakeBundle(t, 1)
	seed.Put(hash, data)

	ffs := &FaultFS{}
	c, err := NewStore(StoreConfig{Dir: dir, Log: &log, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.Fail("read", errors.New("io pressure"))
	if _, ok := c.Get(hash); ok {
		t.Fatal("unreadable entry was served")
	}
	st := c.Stats()
	if st.DiskErrors < 1 {
		t.Fatalf("stats = %+v, want a counted disk error", st)
	}
	if st.Corrupt != 0 || st.Quarantined != 0 {
		t.Fatalf("read error mis-filed as corruption: %+v", st)
	}
	ffs.Heal("read")
	got, ok := c.Get(hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("entry not served after the read fault healed")
	}
}

// Degraded reports whether the store is currently memory-only (last disk
// write failed).
func (c *Cache) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.Degraded
}

// BenchmarkStoreGetDisk times one disk hit on an entry this process has
// already verified: two real bundles behind a 1-entry LRU, read in turn,
// so every Get reads the file back from disk.
func BenchmarkStoreGetDisk(b *testing.B) {
	cfg := quickConfig()
	s, err := New(Options{BaseConfig: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewStore(StoreConfig{Entries: 1, Dir: b.TempDir(), Log: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	var hashes []string
	for seed := uint64(1); seed <= 2; seed++ {
		job := quickJob
		job.Seed = seed
		res, err := s.Run(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		c.Put(res.Hash, res.Bundle)
		hashes = append(hashes, res.Hash)
	}
	for _, h := range hashes {
		c.Get(h) // the first disk read of each entry verifies it in full
	}
	before := c.Stats().DiskHits
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, ok := c.Get(hashes[i%2]); !ok {
			b.Fatal("stored entry missing")
		}
	}
	b.StopTimer()
	if got := c.Stats().DiskHits - before; got != uint64(b.N) {
		b.Fatalf("%d of %d reads were disk hits", got, b.N)
	}
}
