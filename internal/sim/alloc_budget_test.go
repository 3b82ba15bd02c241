package sim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/alloc"
)

// designPoint names one of the paper's six design points (§3.1).
type designPoint struct {
	topo string
	c    int
}

var designPoints = []designPoint{
	{"mesh", 1}, {"mesh", 2}, {"mesh", 4},
	{"fbfly", 1}, {"fbfly", 2}, {"fbfly", 4},
}

// config is the point's simulation with both allocators of architecture
// arch (round-robin arbiters, pessimistic speculation).
func (pt designPoint) config(arch alloc.Arch) Config {
	cfg := meshConfig(pt.c, 0.1)
	if pt.topo == "fbfly" {
		cfg = fbflyConfig(pt.c, 0.1)
	}
	cfg.VA.Arch, cfg.SA.Arch = arch, arch
	return cfg
}

// newBudget bounds what one sim.New may cost; before is what construction
// with one heap object per arbiter and per bit vector cost on the same
// configuration, kept for the ratio the test logs.
type newBudget struct {
	allocs, bytes             int
	beforeAllocs, beforeBytes int
}

// newBudgets is indexed by design point, then by architecture (sep_if,
// sep_of, wf). The allocation count no longer depends on the VC count — a
// router is a fixed number of slabs — so the mesh rows share one count
// budget (64 routers + 64 terminals) and the fbfly rows another (16 + 64);
// wavefront adds three separately built wavefront blocks per router. Byte
// budgets sit 2–5 % above what was measured when they were set. What is left
// is mostly state the router needs per VC (the flit FIFO, the request
// entries, a 32-byte header per bit vector), which is why the smallest
// routers shed the fewest bytes.
var newBudgets = map[designPoint][3]newBudget{
	{"mesh", 1}: {
		{2000, 610 << 10, 22110, 868714},
		{2000, 650 << 10, 24926, 928302},
		{2600, 735 << 10, 20190, 782884},
	},
	{"mesh", 2}: {
		{2000, 800 << 10, 32990, 1306156},
		{2000, 860 << 10, 37087, 1391744},
		{2600, 945 << 10, 25310, 1031208},
	},
	{"mesh", 4}: {
		{2000, 1195 << 10, 54751, 2206024},
		{2000, 1310 << 10, 61408, 2342704},
		{2600, 1430 << 10, 35551, 1543854},
	},
	{"fbfly", 1}: {
		{850, 385 << 10, 19087, 742242},
		{850, 413 << 10, 21071, 783934},
		{1000, 442 << 10, 11567, 484114},
	},
	{"fbfly", 2}: {
		{850, 620 << 10, 33167, 1306148},
		{850, 673 << 10, 36431, 1374526},
		{1000, 700 << 10, 16687, 777062},
	},
	{"fbfly", 4}: {
		{850, 1097 << 10, 61329, 2439436},
		{850, 1200 << 10, 67153, 2560048},
		{1000, 1290 << 10, 26928, 1390444},
	},
}

// TestNewAllocBudget pins the memory layout of construction: sim.New on
// every design point × allocator architecture stays within its allocation
// and byte budget. A change that turns a slab back into per-object
// allocations fails here long before it shows in a wall-clock benchmark.
func TestNewAllocBudget(t *testing.T) {
	archs := []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront}
	for _, pt := range designPoints {
		for ai, arch := range archs {
			t.Run(fmt.Sprintf("%s_c%d/%s", pt.topo, pt.c, arch), func(t *testing.T) {
				cfg := pt.config(arch)
				allocs := int(testing.AllocsPerRun(3, func() { New(cfg) }))
				const runs = 4
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < runs; i++ {
					New(cfg)
				}
				runtime.ReadMemStats(&m1)
				bytes := int(m1.TotalAlloc-m0.TotalAlloc) / runs
				b := newBudgets[pt][ai]
				t.Logf("allocs %d (budget %d, before %d: %.1f %%), bytes %d (budget %d, before %d: %.1f %%)",
					allocs, b.allocs, b.beforeAllocs, 100*float64(allocs)/float64(b.beforeAllocs),
					bytes, b.bytes, b.beforeBytes, 100*float64(bytes)/float64(b.beforeBytes))
				if allocs > b.allocs {
					t.Errorf("sim.New made %d allocations, budget %d", allocs, b.allocs)
				}
				if bytes > b.bytes {
					t.Errorf("sim.New allocated %d bytes, budget %d", bytes, b.bytes)
				}
			})
		}
	}
}
