package sim

// Free-list shrink policy, mirroring the wheel-slot policy in shard.go: a
// saturation burst can fill the recycle pool with far more packet objects
// than the steady state ever redraws, and a plain append/pop free list would
// pin that peak for the rest of the run. Each cycle the pool records its
// low-water mark; after poolShrinkAfter consecutive cycles in which more than
// poolShrinkMin objects were never drawn, half of that idle surplus is
// released to the garbage collector, stepping down geometrically toward
// actual usage without thrashing at the boundary.
const (
	poolShrinkMin   = 64
	poolShrinkAfter = 64
)

// pool is a LIFO free list of recycled objects with burst decay. It follows
// the shard ownership discipline: only the owning shard touches it in
// phase 1 and only the single-threaded commit in phase 2.
type pool[T any] struct {
	items []T
	low   int // smallest len since the last trim (the never-drawn surplus)
	idle  int // consecutive trims that observed a surplus above poolShrinkMin
}

// get pops a recycled object, or returns the zero value and false.
func (p *pool[T]) get() (T, bool) {
	k := len(p.items) - 1
	if k < 0 {
		var zero T
		return zero, false
	}
	it := p.items[k]
	var zero T
	p.items[k] = zero // drop the pool's reference; the object is in flight now
	p.items = p.items[:k]
	if k < p.low {
		p.low = k
	}
	return it, true
}

// put returns an object to the free list.
func (p *pool[T]) put(it T) { p.items = append(p.items, it) }

// trim applies the shrink policy; the simulator calls it once per cycle.
func (p *pool[T]) trim() {
	if p.low > poolShrinkMin {
		if p.idle++; p.idle >= poolShrinkAfter {
			keep := len(p.items) - p.low/2
			var zero T
			for i := keep; i < len(p.items); i++ {
				p.items[i] = zero
			}
			p.items = p.items[:keep]
			if c := cap(p.items); c > poolShrinkMin && len(p.items)*4 < c {
				p.items = append(make([]T, 0, c/2), p.items...)
			}
			p.idle = 0
		}
	} else {
		p.idle = 0
	}
	p.low = len(p.items)
}

// part returns a fresh pool holding the i-th of k equal parts of p's objects
// (Network.split hands a one-shard network's free list out to its shards).
func (p *pool[T]) part(i, k int) pool[T] {
	items := append([]T(nil), p.items[i*len(p.items)/k:(i+1)*len(p.items)/k]...)
	return pool[T]{items: items, low: len(items)}
}

// free returns the number of pooled objects; exposed for tests.
func (p *pool[T]) free() int { return len(p.items) }
