// Package sharecache is a content-addressed build-once cache for immutable
// derived state shared across concurrently running simulations: topology
// wiring and routing functions — anything proven read-only after
// construction. Concurrent callers asking for the same key build the
// value once and share the result (per-key singleflight), so a curve tracer
// or design-space search that launches dozens of sims of the same design
// point pays for one construction instead of one per sim.
//
// The cache stores only values that are never written after their build
// function returns; the sharing contract is audited by the mutation
// detection tests in internal/curve (trace with sharing on vs off must be
// byte-equal, and shared structures must checksum identically before and
// after concurrent runs). Mutable state — wavefront priority diagonals,
// precomputed-switch request latches, per-packet routing state — must stay
// per-sim and never enter this cache.
//
// Sharing can be disabled (SetEnabled(false)), which makes Get call the
// build function every time — the pre-sharing cold path, kept for the
// cold-vs-shared benchmarks and the equivalence tests.
package sharecache

import "sync"

// Cache is a keyed build-once store. The zero value is not usable; use New.
type Cache struct {
	mu      sync.Mutex
	enabled bool
	m       map[string]*entry
	builds  int64
	hits    int64
}

// entry is one key's slot: the sync.Once makes the first caller build while
// concurrent callers for the same key wait and share.
type entry struct {
	once sync.Once
	val  any
}

// New returns an enabled, empty cache.
func New() *Cache {
	return &Cache{enabled: true, m: map[string]*entry{}}
}

// Default is the process-wide cache the simulation constructors consult.
var Default = New()

// Get returns the value for key, building it via build exactly once per key
// while enabled. Concurrent Gets for the same key block until the first
// caller's build returns, then share its result. When the cache is disabled
// Get builds a fresh value every call and stores nothing.
func (c *Cache) Get(key string, build func() any) any {
	c.mu.Lock()
	if !c.enabled {
		c.mu.Unlock()
		return build()
	}
	e, ok := c.m[key]
	if !ok {
		e = &entry{}
		c.m[key] = e
		c.builds++
	} else {
		c.hits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}

// Get is the typed wrapper over Cache.Get.
func Get[T any](c *Cache, key string, build func() T) T {
	return c.Get(key, func() any { return build() }).(T)
}

// SetEnabled toggles sharing. Disabling does not drop existing entries;
// re-enabling resumes serving them.
func (c *Cache) SetEnabled(on bool) {
	c.mu.Lock()
	c.enabled = on
	c.mu.Unlock()
}

// Enabled reports whether Get currently shares.
func (c *Cache) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// Reset drops every entry and zeroes the counters; the enabled flag is
// unchanged. Benchmarks call this between cold and warm passes.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.m = map[string]*entry{}
	c.builds, c.hits = 0, 0
	c.mu.Unlock()
}

// Stats is a point-in-time accounting snapshot.
type Stats struct {
	Enabled bool  `json:"enabled"`
	Entries int   `json:"entries"`
	Builds  int64 `json:"builds"`
	Hits    int64 `json:"hits"`
}

// Stats reports the cache's current accounting.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Enabled: c.enabled, Entries: len(c.m), Builds: c.builds, Hits: c.hits}
}
