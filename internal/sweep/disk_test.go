package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// diskVal marshals a minimal valid stored result for key.
func diskVal(t *testing.T, key string) []byte {
	t.Helper()
	b, err := json.Marshal(UnitResult{SchemaVersion: SchemaVersion, Key: key, Latency: 12.5})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDiskStoreRoundTrip(t *testing.T) {
	d, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "aaaa"
	if _, ok := d.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	val := diskVal(t, key)
	d.Put(key, val)
	got, ok := d.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("round trip: ok=%v got=%q want=%q", ok, got, val)
	}
	st := d.Stats()
	if st.Files != 1 || st.Bytes != int64(len(val)) || st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Overwriting the same key must not double-count the file.
	d.Put(key, val)
	if st := d.Stats(); st.Files != 1 || st.Bytes != int64(len(val)) || st.Writes != 2 {
		t.Fatalf("stats after overwrite: %+v", st)
	}
}

// TestDiskStoreRestartWarm pins the point of the disk tier: a second store
// opened on the same root sees the first one's writes and seeds its size
// accounting from the directory.
func TestDiskStoreRestartWarm(t *testing.T) {
	root := t.TempDir()
	d1, err := OpenDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	val := diskVal(t, "warmkey")
	d1.Put("warmkey", val)

	d2, err := OpenDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.Get("warmkey")
	if !ok || !bytes.Equal(got, val) {
		t.Fatal("restarted store missed a persisted key")
	}
	if st := d2.Stats(); st.Files != 1 || st.Bytes != int64(len(val)) {
		t.Fatalf("restart accounting: %+v", st)
	}
}

// TestDiskStoreCorruptionTolerant pins the load contract: truncated,
// garbage, foreign and wrong-version files are counted misses — never a
// panic, never a served result — and a later Put heals the entry.
func TestDiskStoreCorruptionTolerant(t *testing.T) {
	d, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	valid := diskVal(t, "goodkey")
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", valid[:len(valid)/2]},
		{"garbage", []byte("\x00\xff not json at all")},
		{"empty", nil},
		// Valid JSON answering a different key: must fail the cross-check.
		{"foreign_key", diskVal(t, "someotherkey")},
		// Valid JSON for this key under a different schema version.
		{"wrong_version", func() []byte {
			b, _ := json.Marshal(UnitResult{SchemaVersion: SchemaVersion + 1, Key: "goodkey"})
			return b
		}()},
	}
	wantErrs := int64(0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(filepath.Join(d.Dir(), "goodkey"+diskSuffix), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Get("goodkey"); ok {
				t.Fatal("corrupt file served as a hit")
			}
			wantErrs++
			if st := d.Stats(); st.LoadErrors != wantErrs {
				t.Fatalf("load errors = %d, want %d", st.LoadErrors, wantErrs)
			}
		})
	}
	// Put heals the corrupted entry.
	d.Put("goodkey", valid)
	if got, ok := d.Get("goodkey"); !ok || !bytes.Equal(got, valid) {
		t.Fatal("Put did not replace the corrupt file")
	}
}

// FuzzDiskStoreGet writes arbitrary bytes where the disk tier keeps a key's
// result and loads them back: Get must never panic, may hit only on bytes
// loadDiskResult accepts, and then returns exactly what json.Encoder writes
// for them as a json.RawMessage (the bytes of a hit on the wire); a second
// Get must agree with the first.
func FuzzDiskStoreGet(f *testing.F) {
	const key = "fuzzkey"
	valid, err := json.Marshal(UnitResult{SchemaVersion: SchemaVersion, Key: key, Latency: 12.5})
	if err != nil {
		f.Fatal(err)
	}
	var indented bytes.Buffer
	json.Indent(&indented, valid, " ", "  ")
	foreign, _ := json.Marshal(UnitResult{SchemaVersion: SchemaVersion, Key: "otherkey"})
	stale, _ := json.Marshal(UnitResult{SchemaVersion: SchemaVersion + 1, Key: key})
	for _, seed := range [][]byte{valid, valid[:len(valid)/2], foreign, stale, nil,
		[]byte("\x00\xff not json"), []byte("null"), []byte(`{"key":"fuzzkey","schema_version":1e999}`),
		indented.Bytes(), []byte("{\"key\":\"fuzzkey\",\"schema_version\":3,\"x\":\"<&>\u2028\u2029\xff\"}\n")} {
		f.Add(seed)
	}
	d, err := OpenDiskStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(d.Dir(), key+diskSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := d.Get(key)
		if _, want := loadDiskResult(key, data); ok != want {
			t.Fatalf("Get hit = %v, loadDiskResult = %v for %q", ok, want, data)
		}
		if ok {
			var wire bytes.Buffer
			if err := json.NewEncoder(&wire).Encode(json.RawMessage(data)); err != nil {
				t.Fatal(err)
			}
			if want := bytes.TrimSuffix(wire.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
				t.Fatalf("Get returned %q, the encoder writes %q for %q", got, want, data)
			}
		}
		again, ok2 := d.Get(key)
		if ok2 != ok || !bytes.Equal(again, got) {
			t.Fatalf("second Get = (%q, %v), first = (%q, %v)", again, ok2, got, ok)
		}
	})
}

// TestDiskStoreVersionScoped pins that a SchemaVersion bump reads from a
// fresh directory: old-version entries are invisible, not migrated.
func TestDiskStoreVersionScoped(t *testing.T) {
	root := t.TempDir()
	dOld, err := openDiskStoreVersion(root, SchemaVersion)
	if err != nil {
		t.Fatal(err)
	}
	dOld.Put("k", diskVal(t, "k"))

	dNew, err := openDiskStoreVersion(root, SchemaVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	if dNew.Dir() == dOld.Dir() {
		t.Fatal("version bump kept the same directory")
	}
	if !strings.HasPrefix(filepath.Base(dNew.Dir()), "v") {
		t.Fatalf("unexpected dir layout: %s", dNew.Dir())
	}
	if _, ok := dNew.Get("k"); ok {
		t.Fatal("new schema version served an old version's entry")
	}
	if st := dNew.Stats(); st.Files != 0 {
		t.Fatalf("new version dir accounted old files: %+v", st)
	}
}

// TestServerDiskRestartWarm drives the full server stack: a sweep served by
// one server is served entirely from disk — byte-equal, zero simulations —
// by a fresh server sharing the cache directory, and /statz reports the
// disk tier.
func TestServerDiskRestartWarm(t *testing.T) {
	root := t.TempDir()
	opts := Options{
		Workers:  2,
		CacheDir: root,
	}
	req := Request{
		Base:  UnitConfig{Topo: "mesh", Rate: 0.2, Seed: 42, Warmup: 200, Measure: 400, Drain: 2000},
		Rates: []float64{0.05, 0.2},
	}

	s1, ts1 := newTestServer(t, opts)
	cold := postSweep(t, ts1.Client(), ts1.URL, req)
	if cold.Summary.Misses != 2 || s1.SimRuns() != 2 {
		t.Fatalf("cold pass: %+v, sims=%d", cold.Summary, s1.SimRuns())
	}
	if st := s1.Disk().Stats(); st.Writes != 2 || st.Files != 2 {
		t.Fatalf("disk after cold pass: %+v", st)
	}

	s2, ts2 := newTestServer(t, opts)
	warm := postSweep(t, ts2.Client(), ts2.URL, req)
	if warm.Summary.Hits != 2 || s2.SimRuns() != 0 {
		t.Fatalf("restart pass: %+v, sims=%d, want 2 disk hits and 0 sims", warm.Summary, s2.SimRuns())
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(cold.byIndex(i).Result, warm.byIndex(i).Result) {
			t.Fatalf("unit %d: disk-restored bytes differ from the miss that wrote them", i)
		}
	}
	if st := s2.Disk().Stats(); st.Hits != 2 {
		t.Fatalf("disk after restart pass: %+v", st)
	}

	// A repeat on the same server is a memory hit: the disk hit was
	// promoted, so the disk counters stay put.
	postSweep(t, ts2.Client(), ts2.URL, req)
	if st := s2.Disk().Stats(); st.Hits != 2 {
		t.Fatalf("memory tier did not absorb the repeat: %+v", st)
	}

	// /statz reports the disk section iff the tier is configured.
	var statz map[string]json.RawMessage
	resp, err := ts2.Client().Get(ts2.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(b, &statz); err != nil {
		t.Fatal(err)
	}
	if _, ok := statz["disk"]; !ok {
		t.Fatalf("statz missing disk section: %s", b)
	}
	_, tsMem := newTestServer(t, Options{Workers: 1})
	resp, err = tsMem.Client().Get(tsMem.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(b, []byte(`"disk"`)) {
		t.Fatalf("memory-only statz reports a disk section: %s", b)
	}
}

// BenchmarkEvalUnitDiskWarm is the warm pass of the repository benchmark's
// search_jobs workload (bench/workloads.go): a server restarted on a filled
// cache directory answers every unit of a mesh latency curve (phases
// 200/400/2000, rates 0.02 to 0.36) through EvalUnit from disk, promoting
// each into memory, without simulating. One op is one restart and the whole
// curve.
func BenchmarkEvalUnitDiskWarm(b *testing.B) {
	root := b.TempDir()
	var units []UnitConfig
	for i := 1; i <= 18; i++ {
		units = append(units, UnitConfig{Topo: "mesh", Rate: float64(i) / 50, Seed: 42, Warmup: 200, Measure: 400, Drain: 2000})
	}
	ctx := context.Background()
	// pass starts a server on root, evaluates every unit and reports how
	// many it simulated and how many the disk tier answered.
	pass := func() (sims, diskHits int64) {
		srv, err := NewServer(Options{Workers: 1, CacheDir: root})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		for _, u := range units {
			if _, err := srv.EvalUnit(ctx, u); err != nil {
				b.Fatal(err)
			}
		}
		return srv.SimRuns(), srv.Disk().Stats().Hits
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sims, hits := pass(); sims != 0 || hits != int64(len(units)) {
			b.Fatalf("warm pass: %d simulations, %d disk hits; want every one of %d units from disk", sims, hits, len(units))
		}
	}
}

// TestServerDiskCorruptionFallsBackToSim pins the end-to-end robustness
// story: corrupting a cached file turns the next request into a re-simulated
// miss whose result matches the original bytes.
func TestServerDiskCorruptionFallsBackToSim(t *testing.T) {
	root := t.TempDir()
	opts := Options{
		Workers:  1,
		CacheDir: root,
	}
	req := Request{Base: UnitConfig{Topo: "mesh", Rate: 0.2, Seed: 42, Warmup: 200, Measure: 400, Drain: 2000}}

	s1, ts1 := newTestServer(t, opts)
	cold := postSweep(t, ts1.Client(), ts1.URL, req)
	key := cold.byIndex(0).Key

	// Truncate the cached file on disk.
	path := filepath.Join(s1.Disk().Dir(), key+diskSuffix)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, orig[:len(orig)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, opts)
	again := postSweep(t, ts2.Client(), ts2.URL, req)
	if again.Summary.Misses != 1 || s2.SimRuns() != 1 {
		t.Fatalf("corrupt entry not re-simulated: %+v, sims=%d", again.Summary, s2.SimRuns())
	}
	if !bytes.Equal(cold.byIndex(0).Result, again.byIndex(0).Result) {
		t.Fatal("re-simulated result differs from the original")
	}
	// The pre-flight lookup and the in-flight recheck each read the bad
	// file once.
	if st := s2.Disk().Stats(); st.LoadErrors < 1 {
		t.Fatalf("load error not counted: %+v", st)
	}
	// The Put after the re-simulation healed the file.
	if healed, err := os.ReadFile(path); err != nil || !bytes.Equal(healed, orig) {
		t.Fatalf("cache file not healed: err=%v", err)
	}
}

// TestServerHealsStaleV2Cache pins the v2→v3 schema-bump migration story
// end-to-end: a cache root left over from a v2 server — its v2/ directory
// full of old-schema entries, plus (simulating a botched manual migration) a
// v2-versioned payload sitting inside the v3 directory under the unit's v3
// key — serves nothing. The request is a counted miss that re-simulates, and
// the write-through heals the v3 entry in place; the v2 directory is never
// touched.
func TestServerHealsStaleV2Cache(t *testing.T) {
	root := t.TempDir()
	req := Request{Base: UnitConfig{Topo: "mesh", Rate: 0.2, Seed: 42, Warmup: 200, Measure: 400, Drain: 2000}}
	key := req.Base.Normalized().Key()

	// Old-schema tier: entries under v2/ are invisible to a v3 store no
	// matter what they contain.
	oldDir := filepath.Join(root, "v2")
	if err := os.MkdirAll(oldDir, 0o755); err != nil {
		t.Fatal(err)
	}
	staleOld, _ := json.Marshal(UnitResult{SchemaVersion: 2, Key: "stalev2key", Latency: 99})
	if err := os.WriteFile(filepath.Join(oldDir, "stalev2key"+diskSuffix), staleOld, 0o644); err != nil {
		t.Fatal(err)
	}

	// Botched migration: a v2-versioned result filed under the v3 key in
	// the v3 directory. loadDiskResult must refuse it.
	newDir := filepath.Join(root, fmt.Sprintf("v%d", SchemaVersion))
	if err := os.MkdirAll(newDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale, _ := json.Marshal(UnitResult{SchemaVersion: 2, Key: key, Latency: 99})
	if err := os.WriteFile(filepath.Join(newDir, key+diskSuffix), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := Options{Workers: 1, CacheDir: root}
	s, ts := newTestServer(t, opts)
	res := postSweep(t, ts.Client(), ts.URL, req)
	if res.Summary.Misses != 1 || s.SimRuns() != 1 {
		t.Fatalf("stale v2 entries must be counted misses that re-simulate: %+v, sims=%d", res.Summary, s.SimRuns())
	}
	if st := s.Disk().Stats(); st.LoadErrors < 1 {
		t.Fatalf("wrong-version read not counted as a load error: %+v", st)
	}

	// The write-through healed the v3 entry: a fresh store serves the
	// re-simulated bytes.
	d, err := OpenDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key)
	if !ok || !bytes.Equal(got, res.byIndex(0).Result) {
		t.Fatal("v3 entry not healed by the re-simulating miss")
	}
	// A second server over the healed root serves the unit from disk.
	s2, ts2 := newTestServer(t, opts)
	warm := postSweep(t, ts2.Client(), ts2.URL, req)
	if warm.Summary.Hits != 1 || s2.SimRuns() != 0 {
		t.Fatalf("healed entry not served from disk: %+v, sims=%d", warm.Summary, s2.SimRuns())
	}
	if !bytes.Equal(warm.byIndex(0).Result, res.byIndex(0).Result) {
		t.Fatal("healed bytes differ from the miss that wrote them")
	}
	// The v2 tier is retired, not rewritten.
	if b, err := os.ReadFile(filepath.Join(oldDir, "stalev2key"+diskSuffix)); err != nil || !bytes.Equal(b, staleOld) {
		t.Fatalf("v2 directory disturbed: %v", err)
	}
}

// TestDiskStoreIgnoresStrayFiles pins that non-result files in the cache
// directory (temp leftovers, editor droppings) are excluded from size
// accounting.
func TestDiskStoreIgnoresStrayFiles(t *testing.T) {
	root := t.TempDir()
	d1, err := OpenDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d1.Dir(), ".tmp-leftover"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Files != 0 || st.Bytes != 0 {
		t.Fatalf("stray file counted: %+v", st)
	}
}

// TestDiskStoreReclaimsStaleTemps: opening the store deletes the temp files a
// killed process left behind, once they are older than staleTempAge, and
// leaves a fresh temp file (a live Put's) and every result in place.
func TestDiskStoreReclaimsStaleTemps(t *testing.T) {
	root := t.TempDir()
	d1, err := OpenDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	d1.Put("kept", diskVal(t, "kept"))
	stale := filepath.Join(d1.Dir(), tempPrefix+"stale")
	fresh := filepath.Join(d1.Dir(), tempPrefix+"fresh")
	for _, f := range []string{stale, fresh} {
		if err := os.WriteFile(f, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	for _, f := range []string{stale, d1.path("kept")} { // an old result stays
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := OpenDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived open: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file removed: %v", err)
	}
	if _, ok := d2.Get("kept"); !ok {
		t.Fatal("result lost at open")
	}
	if st, st1 := d2.Stats(), d1.Stats(); st.Files != 1 || st.Bytes != st1.Bytes {
		t.Fatalf("accounting after open %+v, want the one result of %+v", st, st1)
	}
}

// agedPut writes key and backdates its mtime so LRU eviction order is
// deterministic regardless of filesystem timestamp resolution.
func agedPut(t *testing.T, d *DiskStore, key string, age time.Duration) {
	t.Helper()
	d.Put(key, diskVal(t, key))
	old := time.Now().Add(-age)
	if err := os.Chtimes(filepath.Join(d.Dir(), key+diskSuffix), old, old); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreEvictsOldestFirst pins the eviction policy: crossing the
// entry budget deletes result files in mtime order, oldest first, and the
// counters account for what was removed.
func TestDiskStoreEvictsOldestFirst(t *testing.T) {
	d, err := OpenDiskStoreBounded(t.TempDir(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	agedPut(t, d, "old", 3*time.Hour)
	agedPut(t, d, "mid", 2*time.Hour)
	d.Put("new", diskVal(t, "new")) // third entry: budget is 2, "old" must go

	if _, ok := d.Get("old"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for _, k := range []string{"mid", "new"} {
		if _, ok := d.Get(k); !ok {
			t.Fatalf("entry %q evicted out of LRU order", k)
		}
	}
	st := d.Stats()
	if st.Files != 2 || st.Evictions != 1 || st.EvictScans != 1 || st.EvictedBytes == 0 {
		t.Fatalf("eviction accounting: %+v", st)
	}
}

// TestDiskStoreEvictsByBytes drives the byte budget: the store keeps only as
// many recent results as fit.
func TestDiskStoreEvictsByBytes(t *testing.T) {
	one := int64(len(diskVal(t, "aa")))
	d, err := OpenDiskStoreBounded(t.TempDir(), 0, 2*one+1)
	if err != nil {
		t.Fatal(err)
	}
	agedPut(t, d, "aa", 3*time.Hour)
	agedPut(t, d, "bb", 2*time.Hour)
	d.Put("cc", diskVal(t, "cc"))
	if _, ok := d.Get("aa"); ok {
		t.Fatal("byte budget did not evict the oldest entry")
	}
	if st := d.Stats(); st.Bytes > 2*one+1 || st.Evictions != 1 {
		t.Fatalf("byte accounting after eviction: %+v", st)
	}
}

// TestDiskStoreGetProtectsFromEviction pins the "recently used" half of LRU:
// a Get refreshes the entry's mtime, so a later eviction takes the
// untouched entry instead.
func TestDiskStoreGetProtectsFromEviction(t *testing.T) {
	d, err := OpenDiskStoreBounded(t.TempDir(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	agedPut(t, d, "used", 3*time.Hour)
	agedPut(t, d, "idle", 2*time.Hour)
	if _, ok := d.Get("used"); !ok { // refreshes mtime: now newer than "idle"
		t.Fatal("warm entry missed")
	}
	d.Put("new", diskVal(t, "new"))
	if _, ok := d.Get("idle"); ok {
		t.Fatal("LRU evicted the idle entry's junior")
	}
	if _, ok := d.Get("used"); !ok {
		t.Fatal("recently read entry was evicted")
	}
}

// TestDiskStoreEvictionNeverDeletesKeepOrStrays pins two safety properties:
// the key whose Put triggered eviction survives even when it is the oldest
// candidate, and non-result files in the directory are never deleted (the
// eviction scan is as corruption-tolerant as the load path).
func TestDiskStoreEvictionNeverDeletesKeepOrStrays(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDiskStoreBounded(root, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(d.Dir(), "notes.txt")
	if err := os.WriteFile(stray, []byte("not a result"), 0o644); err != nil {
		t.Fatal(err)
	}
	agedPut(t, d, "first", 3*time.Hour)
	// Backdate the new write below the survivor's mtime: "keep" protection,
	// not age, is what must save it.
	agedPut(t, d, "second", 5*time.Hour)
	if _, ok := d.Get("second"); !ok {
		t.Fatal("just-written key evicted by its own Put")
	}
	if _, ok := d.Get("first"); ok {
		t.Fatal("store over budget: older sibling should have been evicted")
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("eviction touched a non-result file: %v", err)
	}
	if st := d.Stats(); st.Files != 1 {
		t.Fatalf("accounting after keep-protected eviction: %+v", st)
	}
}

// TestServerRestartAfterEvictionHeals drives eviction through the full
// server stack: a bounded disk tier evicts under load, and a restarted
// server re-simulates the evicted units — byte-equal to the originals —
// while serving the surviving ones from disk.
func TestServerRestartAfterEvictionHeals(t *testing.T) {
	root := t.TempDir()
	opts := Options{
		Workers:        2,
		CacheDir:       root,
		DiskMaxEntries: 2,
	}
	req := Request{
		Base:  UnitConfig{Topo: "mesh", Seed: 42, Warmup: 200, Measure: 400, Drain: 2000},
		Rates: []float64{0.05, 0.1, 0.15, 0.2},
	}

	s1, ts1 := newTestServer(t, opts)
	cold := postSweep(t, ts1.Client(), ts1.URL, req)
	if cold.Summary.Misses != 4 {
		t.Fatalf("cold pass: %+v", cold.Summary)
	}
	st := s1.Disk().Stats()
	if st.Evictions == 0 || st.Files > 2 {
		t.Fatalf("bounded disk tier did not evict: %+v", st)
	}

	s2, ts2 := newTestServer(t, opts)
	warm := postSweep(t, ts2.Client(), ts2.URL, req)
	if warm.Summary.Hits+warm.Summary.Misses != 4 || warm.Summary.Misses == 0 ||
		int64(warm.Summary.Misses) != s2.SimRuns() {
		t.Fatalf("restart pass: %+v, sims=%d", warm.Summary, s2.SimRuns())
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(cold.byIndex(i).Result, warm.byIndex(i).Result) {
			t.Fatalf("unit %d: healed result differs from the original", i)
		}
	}
}
