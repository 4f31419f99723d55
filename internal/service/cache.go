package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"baryon/internal/report"
)

// CacheStats is a point-in-time view of the result store's counters.
type CacheStats struct {
	// Hits counts lookups served from memory, DiskHits the subset of hits
	// that had to be reloaded from the on-disk bundle directory first.
	Hits, DiskHits uint64
	// Misses counts lookups that found nothing anywhere.
	Misses uint64
	// Evictions counts in-memory entries dropped by the LRU bound (disk
	// copies are never evicted).
	Evictions uint64
	// Entries is the current in-memory entry count.
	Entries int
	// Verified counts disk reads that ran the full bundle check (strict
	// decode and spec-hash recomputation). A disk read of bytes that already
	// passed it in this process re-checks only the sha256 trailer.
	Verified uint64
	// Corrupt counts disk entries that failed verification (bad trailer,
	// truncated bytes, spec-hash mismatch); Quarantined counts the subset
	// successfully moved into the quarantine/ subdirectory. A corrupt entry
	// is a miss: the job recomputes and the store rewrites it.
	Corrupt, Quarantined uint64
	// DiskErrors counts failed disk operations (write, rename, read errors
	// other than not-exist). Any disk-write failure flips Degraded.
	DiskErrors uint64
	// Degraded reports the store is running memory-only: the last disk
	// write failed, so results are served but not persisted. A later
	// successful write clears it.
	Degraded bool
	// RecoveredTmp counts orphaned *.tmp files the startup recovery scan
	// swept from the bundle directory (artifacts of a crash mid-write).
	RecoveredTmp uint64
}

// storeTrailerPrefix opens the integrity trailer line appended to every
// on-disk bundle: "#baryon-store sha256:<hex>\n" where the digest covers
// every preceding byte. The '#' keeps the file a line-oriented artifact a
// human can still inspect; JSON tooling that reads one value ignores it.
const storeTrailerPrefix = "#baryon-store sha256:"

// quarantineDir is the subdirectory of the bundle directory that corrupt
// entries are moved into (and startup counts).
const quarantineDir = "quarantine"

// Cache is the content-addressed result store: canonical bundle bytes keyed
// by the spec hash, held in a bounded in-memory LRU with an optional
// write-through on-disk bundle directory. Because bundle bytes are
// canonical, a hit is byte-identical to re-running the simulation; because
// the disk layer is keyed by the same hash, a restarted daemon serves its
// predecessor's results cold (cold-start reload).
//
// The disk layer is verified and crash-safe: every file carries a sha256
// trailer that every read re-checks, and the first read of each entry in a
// process also strictly decodes the bundle and recomputes its canonical
// spec hash against its key (later reads whose trailer digest matches the
// verified bytes skip that decode); writes fsync before the publishing
// rename, corrupt or truncated files are moved to quarantine/ and treated
// as misses (the deterministic run recomputes byte-identical bytes), and a
// failed disk write degrades the store to memory-only instead of failing
// the job.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // MRU at front
	m   map[string]*list.Element // hash -> *cacheEntry element
	dir string
	fs  storeFS
	log io.Writer
	// verifiedSums maps a spec hash to the sha256 of the disk bytes that last
	// passed the full check in this process, at most cap*verifiedPerEntry
	// digests (never bundle bytes).
	verifiedSums map[string][sha256.Size]byte

	// stats holds every counter; its Entries field stays zero, since Stats
	// reads the count off the LRU list.
	stats CacheStats
}

type cacheEntry struct {
	hash string
	data []byte
}

// defaultCacheEntries bounds the in-memory LRU when the caller does not.
const defaultCacheEntries = 1024

// verifiedPerEntry bounds the verified-digest memo at this multiple of the
// LRU bound: 32-byte digests are cheap to hold for far more entries than
// the LRU holds bundles, so the disk working set can outgrow the LRU and
// still skip the decode.
const verifiedPerEntry = 8

// StoreConfig configures a Cache beyond the entry bound and directory:
// where recovery and degradation messages go, and (for tests) the
// filesystem seam.
type StoreConfig struct {
	// Entries bounds the in-memory LRU (<= 0 selects the default).
	Entries int
	// Dir, when non-empty, write-through persists bundles for cold-start
	// reload across restarts.
	Dir string
	// Log receives one-line recovery and degradation diagnostics
	// (nil = os.Stderr).
	Log io.Writer
	// FS overrides the filesystem (nil = the real one); tests inject a
	// FaultFS here to exercise IO failure paths.
	FS storeFS
}

// NewStore builds a Cache from a full StoreConfig and, when a directory is
// configured, runs the startup recovery scan: orphaned *.tmp files (a crash
// mid-write) are deleted, quarantined entries are counted, and a one-line
// summary is logged.
func NewStore(cfg StoreConfig) (*Cache, error) {
	entries := cfg.Entries
	if entries <= 0 {
		entries = defaultCacheEntries
	}
	sfs := cfg.FS
	if sfs == nil {
		sfs = osFS{}
	}
	logw := cfg.Log
	if logw == nil {
		logw = os.Stderr
	}
	c := &Cache{
		cap:          entries,
		ll:           list.New(),
		m:            make(map[string]*list.Element),
		dir:          cfg.Dir,
		fs:           sfs,
		log:          logw,
		verifiedSums: make(map[string][sha256.Size]byte),
	}
	if c.dir != "" {
		if err := sfs.MkdirAll(c.dir); err != nil {
			return nil, err
		}
		c.recoverDir()
	}
	return c, nil
}

// recoverDir is the startup recovery scan over the bundle directory: sweep
// orphaned *.tmp files a crashed predecessor left mid-write, count existing
// bundles and quarantined entries, and log one summary line.
func (c *Cache) recoverDir() {
	names, err := c.fs.ReadDir(c.dir)
	if err != nil {
		c.stats.DiskErrors++
		fmt.Fprintf(c.log, "service: store recovery: reading %s: %v\n", c.dir, err)
		return
	}
	var swept, failed, bundles int
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if err := c.fs.Remove(filepath.Join(c.dir, name)); err != nil {
				c.stats.DiskErrors++
				failed++
			} else {
				swept++
			}
		case strings.HasSuffix(name, ".bundle.json"):
			bundles++
		}
	}
	c.stats.RecoveredTmp = uint64(swept)
	quarantined := 0
	if qnames, err := c.fs.ReadDir(filepath.Join(c.dir, quarantineDir)); err == nil {
		quarantined = len(qnames)
	}
	fmt.Fprintf(c.log, "service: store recovery: %d bundle(s) on disk, swept %d orphaned tmp file(s), %d quarantined entr(ies)\n",
		bundles, swept, quarantined)
	if failed > 0 {
		fmt.Fprintf(c.log, "service: store recovery: failed to remove %d tmp file(s)\n", failed)
	}
}

// Get returns the stored canonical bundle bytes for hash, consulting memory
// first and the on-disk directory second (promoting a verified disk hit
// into memory). The returned slice is shared and must not be modified.
func (c *Cache) Get(hash string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.m[hash]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, true
	}
	dir := c.dir
	c.mu.Unlock()
	// The disk read happens outside the mutex so one cold lookup never
	// stalls concurrent Get/Put/Stats calls; the map is re-checked after
	// reacquiring in case a concurrent fill won the race.
	if dir != "" {
		if data, ok := c.loadDisk(hash); ok {
			c.mu.Lock()
			defer c.mu.Unlock()
			if el, ok := c.m[hash]; ok {
				c.ll.MoveToFront(el)
				c.stats.Hits++
				return el.Value.(*cacheEntry).data, true
			}
			c.stats.Hits++
			c.stats.DiskHits++
			c.insert(hash, data)
			return data, true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// loadDisk reads and verifies hash's on-disk entry. Every read re-checks the
// sha256 trailer; the bundle check runs only when the trailer's digest is
// not the one whose bytes already passed it in this process. The bundle
// check is a pure function of the bytes, which that digest identifies, so
// every byte served has passed every check. Anything that fails —
// unreadable trailer, digest mismatch, undecodable bundle, spec hash not
// matching the filename key — is quarantined and reported as a miss: the
// deterministic run recomputes identical bytes and Put rewrites the entry.
func (c *Cache) loadDisk(hash string) ([]byte, bool) {
	raw, err := c.fs.ReadFile(c.path(hash))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.mu.Lock()
			c.stats.DiskErrors++
			c.mu.Unlock()
			fmt.Fprintf(c.log, "service: store: reading %s: %v\n", c.path(hash), err)
		}
		return nil, false
	}
	data, sum, err := checkStoreTrailer(raw)
	if err != nil {
		c.quarantine(hash, err)
		return nil, false
	}
	c.mu.Lock()
	known, ok := c.verifiedSums[hash]
	c.mu.Unlock()
	if ok && known == sum {
		return data, true
	}
	if err := checkStoreBundle(hash, data); err != nil {
		c.quarantine(hash, err)
		return nil, false
	}
	c.mu.Lock()
	c.stats.Verified++
	c.rememberVerified(hash, sum)
	c.mu.Unlock()
	return data, true
}

// rememberVerified records sum as the digest of hash's verified bytes,
// first evicting an arbitrary digest when the memo is at its bound. Caller
// holds the mutex.
func (c *Cache) rememberVerified(hash string, sum [sha256.Size]byte) {
	if _, ok := c.verifiedSums[hash]; !ok && len(c.verifiedSums) >= c.cap*verifiedPerEntry {
		for h := range c.verifiedSums {
			delete(c.verifiedSums, h)
			break
		}
	}
	c.verifiedSums[hash] = sum
}

// checkStoreTrailer checks an entry's integrity trailer: it must be present,
// and the sha256 of every preceding byte must match it (catches torn,
// flipped and truncated writes). It returns the bundle bytes and their
// digest.
func checkStoreTrailer(raw []byte) ([]byte, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		return nil, sum, errors.New("store entry is truncated (no trailer line)")
	}
	idx := bytes.LastIndexByte(raw[:len(raw)-1], '\n')
	trailer := raw[idx+1 : len(raw)-1]
	if !bytes.HasPrefix(trailer, []byte(storeTrailerPrefix)) {
		return nil, sum, errors.New("store entry has no integrity trailer")
	}
	data := raw[:idx+1]
	sum = sha256.Sum256(data)
	var want [2 * sha256.Size]byte
	hex.Encode(want[:], sum[:])
	if !bytes.Equal(trailer[len(storeTrailerPrefix):], want[:]) {
		return nil, sum, errors.New("store entry digest mismatch (torn or corrupted write)")
	}
	return data, sum, nil
}

// checkStoreBundle checks an entry's bundle bytes against the hash it is
// filed under: the bundle must decode under the strict schema, and its
// canonical spec hash — both the recorded field and a recomputation from
// the embedded spec key — must equal hash (catches renamed or cross-wired
// entries).
func checkStoreBundle(hash string, data []byte) error {
	b, err := report.Decode(data)
	if err != nil {
		return fmt.Errorf("store entry bundle: %w", err)
	}
	if b.SpecHash != hash {
		return fmt.Errorf("store entry carries spec hash %s, filed under %s", b.SpecHash, hash)
	}
	recomputed, err := b.Spec.Hash()
	if err != nil {
		return fmt.Errorf("store entry spec rehash: %w", err)
	}
	if recomputed != hash {
		return fmt.Errorf("store entry spec rehashes to %s, filed under %s", recomputed, hash)
	}
	return nil
}

// quarantine moves hash's corrupt on-disk entry into the quarantine/
// subdirectory (preserving the bytes for post-mortem) and counts it. A
// failed move deletes the file instead: a corrupt entry must never be
// served again either way.
func (c *Cache) quarantine(hash string, cause error) {
	c.mu.Lock()
	c.stats.Corrupt++
	delete(c.verifiedSums, hash)
	c.mu.Unlock()
	src := c.path(hash)
	qdir := filepath.Join(c.dir, quarantineDir)
	moved := false
	if err := c.fs.MkdirAll(qdir); err == nil {
		if err := c.fs.Rename(src, filepath.Join(qdir, filepath.Base(src))); err == nil {
			moved = true
		}
	}
	if !moved {
		if err := c.fs.Remove(src); err != nil {
			c.mu.Lock()
			c.stats.DiskErrors++
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	if moved {
		c.stats.Quarantined++
	}
	c.mu.Unlock()
	fmt.Fprintf(c.log, "service: store: quarantined %s (moved=%v): %v\n", filepath.Base(src), moved, cause)
}

// Put stores the canonical bundle bytes for hash, writing through to the
// on-disk directory when one is configured. Storing the same hash again is
// a no-op refresh (identical hash implies identical bytes). A disk-write
// failure never fails the caller: the result stays served from memory, the
// store flips to degraded (memory-only) mode, and the failure is counted
// and logged — the next successful write clears degradation.
func (c *Cache) Put(hash string, data []byte) {
	c.mu.Lock()
	c.insert(hash, data)
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return
	}
	// Write+fsync then rename so a crashed daemon never leaves a torn
	// bundle under its published name; the trailer lets a reader detect
	// the (now only theoretical) torn case anyway.
	entry := appendStoreTrailer(data)
	tmp := c.path(hash) + ".tmp"
	err := c.fs.WriteFileSync(tmp, entry)
	if err == nil {
		err = c.fs.Rename(tmp, c.path(hash))
		if err != nil {
			// Don't leave the orphan for the next recovery scan if we can
			// help it; ignore a failed cleanup (the scan sweeps it later).
			_ = c.fs.Remove(tmp)
		}
	}
	c.mu.Lock()
	wasDegraded := c.stats.Degraded
	if err != nil {
		c.stats.DiskErrors++
		c.stats.Degraded = true
	} else {
		c.stats.Degraded = false
	}
	c.mu.Unlock()
	if err != nil && !wasDegraded {
		fmt.Fprintf(c.log, "service: store: disk write failed, serving memory-only until writes recover: %v\n", err)
	}
	if err == nil && wasDegraded {
		fmt.Fprintf(c.log, "service: store: disk writes recovered, persistence restored\n")
	}
}

// appendStoreTrailer renders the on-disk entry for bundle bytes: the bytes
// themselves followed by the sha256 integrity trailer line.
func appendStoreTrailer(data []byte) []byte {
	sum := sha256.Sum256(data)
	entry := make([]byte, 0, len(data)+len(storeTrailerPrefix)+2*sha256.Size+1)
	entry = append(entry, data...)
	entry = append(entry, storeTrailerPrefix...)
	entry = append(entry, hex.EncodeToString(sum[:])...)
	entry = append(entry, '\n')
	return entry
}

// insert adds or refreshes the in-memory entry. Caller holds the mutex.
func (c *Cache) insert(hash string, data []byte) {
	if el, ok := c.m[hash]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).data = data
		return
	}
	c.m[hash] = c.ll.PushFront(&cacheEntry{hash: hash, data: data})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*cacheEntry).hash)
		c.stats.Evictions++
	}
}

// Stats returns the store's current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.ll.Len()
	return st
}

// path maps a spec hash ("sha256:<hex>") to its bundle file in the disk
// directory; the ':' is rewritten so names stay portable.
func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s.bundle.json", strings.ReplaceAll(hash, ":", "-")))
}
