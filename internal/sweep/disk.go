package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DiskStore is the persistent tier under the in-memory Store: one file per
// unit result, content-addressed by the same canonical hash the memory tier
// uses, inside a SchemaVersion-scoped subdirectory of the cache root. A
// server restart therefore keeps its cache warm, and a SchemaVersion bump
// reads from a fresh directory instead of serving results cached under old
// semantics.
//
// Durability contract (DESIGN.md §11):
//
//   - Writes are atomic-by-rename: the value is written to a temp file in
//     the same directory, then renamed onto its final name. Readers — in
//     this process or another sharing the directory — observe either the
//     old bytes or the new bytes, never a torn write. Concurrent writers of
//     the same key are both writing identical bytes (keys are content
//     addresses), so last-rename-wins is harmless.
//   - Loads are corruption-tolerant: a missing, truncated, unparsable or
//     foreign file is a cache miss with a counted load error, never a
//     panic and never a served result. Validity means the bytes unmarshal
//     into a UnitResult whose embedded key and schema version match the
//     file's name and the store's version — a stray file dropped in the
//     cache directory cannot be returned for a key it does not answer. A
//     valid file is returned compacted and escaped as json.Marshal writes
//     (canonicalJSON), so a hand-edited one serves the bytes it always did.
//   - Bad files are left in place (diagnosable), but a later Put of the
//     same key atomically replaces them.
//   - Eviction (when the store is bounded) is LRU by file modification
//     time: a Put that takes the store over its byte or entry budget
//     rescans the directory and deletes the stalest result files until the
//     store fits again, never touching the key just written and never
//     touching non-result files. Get refreshes a hit's mtime (best-effort)
//     so recently used results survive. Because eviction recounts from the
//     directory itself, accounting self-heals after crashes, external
//     deletions, or a second process sharing the directory.
//
// All methods are safe for concurrent use.
type DiskStore struct {
	dir        string // version-scoped directory, e.g. <root>/v2
	maxEntries int64  // 0 = unbounded
	maxBytes   int64  // 0 = unbounded

	// evictMu serializes directory eviction scans; mu stays cheap.
	evictMu sync.Mutex

	mu           sync.Mutex
	files        int64
	bytes        int64
	hits         int64
	misses       int64
	writes       int64
	loadErrors   int64
	writeErrors  int64
	evictions    int64
	evictedBytes int64
	evictScans   int64
}

// diskSuffix is the filename suffix of a stored result; everything else in
// the directory is ignored by accounting and never read.
const diskSuffix = ".json"

// tempPrefix names Put's temp files. One older than staleTempAge was left by
// a process killed between write and rename (a live Put holds its temp file
// for microseconds), and the next open deletes it.
const (
	tempPrefix   = ".tmp-"
	staleTempAge = time.Hour
)

// OpenDiskStore opens (creating if needed) the unbounded disk tier rooted
// at root, scoped to the current SchemaVersion.
func OpenDiskStore(root string) (*DiskStore, error) {
	return OpenDiskStoreBounded(root, 0, 0)
}

// OpenDiskStoreBounded is OpenDiskStore with eviction budgets: the store
// holds at most maxEntries result files totalling at most maxBytes, evicting
// least-recently-used results when a Put crosses either bound. Zero means
// unbounded on that axis.
func OpenDiskStoreBounded(root string, maxEntries, maxBytes int64) (*DiskStore, error) {
	d, err := openDiskStoreVersion(root, SchemaVersion)
	if err != nil {
		return nil, err
	}
	d.maxEntries, d.maxBytes = maxEntries, maxBytes
	return d, nil
}

// openDiskStoreVersion is OpenDiskStore with an explicit schema version;
// split out so tests can prove a version bump rotates the directory.
func openDiskStoreVersion(root string, version int) (*DiskStore, error) {
	if root == "" {
		return nil, fmt.Errorf("sweep: empty cache directory")
	}
	dir := filepath.Join(root, fmt.Sprintf("v%d", version))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	d := &DiskStore{dir: dir}
	// Seed the size accounting from what a previous process left behind, and
	// reclaim the temp files it was killed before renaming.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tempPrefix) && !e.IsDir() {
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > staleTempAge {
				os.Remove(filepath.Join(dir, e.Name()))
				continue
			}
		}
		if e.IsDir() || !strings.HasSuffix(e.Name(), diskSuffix) {
			continue
		}
		d.files++
		if info, err := e.Info(); err == nil {
			d.bytes += info.Size()
		}
	}
	return d, nil
}

// Dir returns the version-scoped directory backing the store.
func (d *DiskStore) Dir() string { return d.dir }

func (d *DiskStore) path(key string) string {
	return filepath.Join(d.dir, key+diskSuffix)
}

// Get returns the persisted result for key in canonical form
// (loadDiskResult), or a miss. Unreadable or invalid files count as load
// errors and miss.
func (d *DiskStore) Get(key string) ([]byte, bool) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		d.mu.Lock()
		d.misses++
		if !os.IsNotExist(err) {
			d.loadErrors++
		}
		d.mu.Unlock()
		return nil, false
	}
	data, ok := loadDiskResult(key, data)
	if !ok {
		d.mu.Lock()
		d.misses++
		d.loadErrors++
		d.mu.Unlock()
		return nil, false
	}
	d.mu.Lock()
	d.hits++
	d.mu.Unlock()
	// Refresh the file's mtime so LRU eviction sees this result as recently
	// used. Best-effort: a failure (read-only directory, concurrent delete)
	// only ages the entry, it never affects the returned hit.
	now := time.Now()
	os.Chtimes(d.path(key), now, now)
	return data, true
}

// loadDiskResult checks that data is a well-formed UnitResult that actually
// answers key under the current schema, and returns it in the form the memory
// store holds (canonicalJSON). json.Unmarshal on a truncated or garbage file
// fails cleanly; a valid-JSON foreign file fails the key/version cross-check.
func loadDiskResult(key string, data []byte) ([]byte, bool) {
	var res UnitResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, false
	}
	if res.Key != key || res.SchemaVersion != SchemaVersion {
		return nil, false
	}
	return canonicalJSON(data), true
}

// canonicalJSON returns valid JSON data as json.Encoder writes it for a
// json.RawMessage: compacted, with '<', '>', '&', U+2028 and U+2029 escaped.
// json.Marshal writes only that form, so every file Put wrote comes back as
// it is; a hand-edited one (re-indented, say) is brought to it here, once,
// and /sweep can copy stored results onto the wire (appendLine).
func canonicalJSON(data []byte) []byte {
	// Without whitespace, '<', '>', '&' or 0xE2 (the lead byte of U+2028 and
	// U+2029) there is nothing to compact or escape, which a byte scan
	// settles far sooner than the JSON scanner.
	for _, c := range data {
		switch c {
		case ' ', '\t', '\n', '\r', '<', '>', '&', 0xE2:
			var compact bytes.Buffer
			json.Compact(&compact, data)
			var escaped bytes.Buffer
			json.HTMLEscape(&escaped, compact.Bytes())
			return escaped.Bytes()
		}
	}
	return data
}

// Put persists val under key via a same-directory temp file and an atomic
// rename. Failures are counted, not returned: the disk tier is an
// accelerator, and a request that simulated successfully must not fail
// because the cache directory is full or read-only.
func (d *DiskStore) Put(key string, val []byte) {
	fail := func() {
		d.mu.Lock()
		d.writeErrors++
		d.mu.Unlock()
	}
	tmp, err := os.CreateTemp(d.dir, tempPrefix+"*")
	if err != nil {
		fail()
		return
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(val); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		fail()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		fail()
		return
	}
	dst := d.path(key)
	info, statErr := os.Stat(dst)
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		fail()
		return
	}
	d.mu.Lock()
	d.writes++
	if statErr == nil {
		d.bytes -= info.Size()
	} else {
		d.files++
	}
	d.bytes += int64(len(val))
	over := (d.maxEntries > 0 && d.files > d.maxEntries) ||
		(d.maxBytes > 0 && d.bytes > d.maxBytes)
	d.mu.Unlock()
	if over {
		d.evict(key)
	}
}

// evict deletes least-recently-used result files until the store fits its
// budgets again, never deleting keep (the key whose Put triggered the
// eviction). It recounts from the directory rather than trusting the running
// totals, which both orders files by true mtime and heals any accounting
// drift (crashes, external deletes, a second process sharing the directory).
func (d *DiskStore) evict(keep string) {
	d.evictMu.Lock()
	defer d.evictMu.Unlock()

	type resultFile struct {
		name  string
		size  int64
		mtime time.Time
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	var files []resultFile
	var totalBytes int64
	for _, e := range entries {
		// Non-result files (temp files mid-rename, stray droppings) are not
		// the store's to delete; they are invisible to budgets too.
		if e.IsDir() || !strings.HasSuffix(e.Name(), diskSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // deleted between ReadDir and Info
		}
		files = append(files, resultFile{e.Name(), info.Size(), info.ModTime()})
		totalBytes += info.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].name < files[j].name
	})

	totalFiles := int64(len(files))
	var evicted, evictedBytes int64
	keepName := keep + diskSuffix
	for _, f := range files {
		fits := (d.maxEntries <= 0 || totalFiles <= d.maxEntries) &&
			(d.maxBytes <= 0 || totalBytes <= d.maxBytes)
		if fits {
			break
		}
		if f.name == keepName {
			continue
		}
		if err := os.Remove(filepath.Join(d.dir, f.name)); err != nil {
			continue // already gone or undeletable; recount covers it
		}
		totalFiles--
		totalBytes -= f.size
		evicted++
		evictedBytes += f.size
	}

	d.mu.Lock()
	d.files, d.bytes = totalFiles, totalBytes
	d.evictScans++
	d.evictions += evicted
	d.evictedBytes += evictedBytes
	d.mu.Unlock()
}

// Stats reports the disk tier's size and lifetime counters.
func (d *DiskStore) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Dir:        d.dir,
		MaxEntries: d.maxEntries, MaxBytes: d.maxBytes,
		Files: d.files, Bytes: d.bytes,
		Hits: d.hits, Misses: d.misses, Writes: d.writes,
		LoadErrors: d.loadErrors, WriteErrors: d.writeErrors,
		Evictions: d.evictions, EvictedBytes: d.evictedBytes,
		EvictScans: d.evictScans,
	}
}

// DiskStats is a point-in-time snapshot of DiskStore accounting.
type DiskStats struct {
	Dir          string `json:"dir"`
	MaxEntries   int64  `json:"max_entries,omitempty"`
	MaxBytes     int64  `json:"max_bytes,omitempty"`
	Files        int64  `json:"files"`
	Bytes        int64  `json:"bytes"`
	Hits         int64  `json:"hits"`
	Misses       int64  `json:"misses"`
	Writes       int64  `json:"writes"`
	LoadErrors   int64  `json:"load_errors"`
	WriteErrors  int64  `json:"write_errors"`
	Evictions    int64  `json:"evictions"`
	EvictedBytes int64  `json:"evicted_bytes"`
	EvictScans   int64  `json:"evict_scans"`
}
