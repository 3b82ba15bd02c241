// Package routing implements the routing functions used in the paper's
// network evaluation (§3.2): dimension-order routing on the mesh and the
// UGAL load-balanced routing algorithm [18] on the flattened butterfly.
//
// Route computation is modeled the way the paper's router uses lookahead
// routing [7]: the decision for a router is available the moment a head
// flit arrives there (it was pre-computed upstream in parallel with VC
// allocation), so routing adds no pipeline stage. Consequently NextHop is
// invoked exactly once per packet per router, when the head flit reaches
// the input unit.
package routing

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// PacketRoute is the per-packet routing state carried through the network.
type PacketRoute struct {
	// DestTerminal is the destination network terminal.
	DestTerminal int
	// Intermediate is the Valiant-phase intermediate router, or -1 when
	// routing minimally.
	Intermediate int
	// Phase is the packet's current resource class: 0 while heading to the
	// intermediate router (non-minimal phase), 1 afterwards (minimal
	// phase). Networks with a single resource class always use 0.
	Phase int
}

// QueueEstimator supplies the local congestion information UGAL consults at
// injection time.
type QueueEstimator interface {
	// Occupancy estimates the number of flits queued for router r's output
	// port p (e.g. downstream credits in flight).
	Occupancy(r, p int) int
}

// Function is a routing function for a specific topology. A packet enters
// the network with PacketRoute{DestTerminal: dst, Intermediate: -1} (phase
// 0); a function that decides more at injection is also an Injector.
type Function interface {
	// ResourceClasses returns the number of resource classes the function
	// requires (R in the paper's V = M·R·C decomposition).
	ResourceClasses() int
	// NextHop returns the output port at router r and the resource class
	// the packet must acquire there. It may advance pr.Phase (e.g. when
	// passing the intermediate router).
	NextHop(r int, pr *PacketRoute) (outPort, resourceClass int)
}

// Injector is implemented by routing functions that decide part of a route
// when the packet enters the network: UGAL picks between the minimal and a
// Valiant path there. Dimension-order functions decide nothing at injection
// and are not Injectors.
type Injector interface {
	// Inject sets pr for a packet entering the network at srcRouter,
	// consulting q and drawing from rng; with either nil it routes without
	// them.
	Inject(srcRouter int, pr *PacketRoute, q QueueEstimator, rng *xrand.Source)
}

// --- Dimension-order routing (mesh) ------------------------------------------

type dor struct {
	k    int
	topo *topology.Topology
}

// NewDOR returns X-then-Y dimension-order routing for a k×k mesh.
func NewDOR(topo *topology.Topology) Function {
	if topo.Name != "mesh" {
		panic("routing: DOR requires a mesh topology")
	}
	k := 1
	for k*k < topo.Routers {
		k++
	}
	if k*k != topo.Routers {
		panic("routing: mesh is not square")
	}
	return &dor{k: k, topo: topo}
}

func (d *dor) ResourceClasses() int { return 1 }

func (d *dor) NextHop(r int, pr *PacketRoute) (int, int) {
	destRouter, destPort := d.topo.TerminalRouter(pr.DestTerminal)
	x, y := topology.MeshCoord(d.k, r)
	dx, dy := topology.MeshCoord(d.k, destRouter)
	switch {
	case x < dx:
		return topology.MeshPortXPlus, 0
	case x > dx:
		return topology.MeshPortXMinus, 0
	case y < dy:
		return topology.MeshPortYPlus, 0
	case y > dy:
		return topology.MeshPortYMinus, 0
	default:
		return destPort, 0
	}
}

// --- UGAL (flattened butterfly) -----------------------------------------------

type ugal struct {
	k, conc   int
	topo      *topology.Topology
	threshold int
}

// NewUGAL returns UGAL routing for a k×k flattened butterfly: packets choose
// between the minimal path and a Valiant path through a random intermediate
// router at injection time, based on locally observed queue occupancies
// weighted by hop count [18]. threshold biases the decision toward minimal
// routing; 1 is a reasonable default.
func NewUGAL(topo *topology.Topology, threshold int) Function {
	if topo.Name != "fbfly" {
		panic("routing: UGAL requires a flattened butterfly topology")
	}
	k := 1
	for k*k < topo.Routers {
		k++
	}
	if k*k != topo.Routers {
		panic("routing: fbfly is not square")
	}
	return &ugal{k: k, conc: topo.Concentration, topo: topo, threshold: threshold}
}

func (u *ugal) ResourceClasses() int { return 2 }

// hops returns the minimal hop count between routers a and b in the
// flattened butterfly (0, 1 or 2).
func (u *ugal) hops(a, b int) int {
	ax, ay := a%u.k, a/u.k
	bx, by := b%u.k, b/u.k
	h := 0
	if ax != bx {
		h++
	}
	if ay != by {
		h++
	}
	return h
}

// firstHopPort returns the output port a packet at router r takes toward
// router target (row before column), or -1 if r == target.
func (u *ugal) firstHopPort(r, target int) int {
	rx, ry := r%u.k, r/u.k
	tx, ty := target%u.k, target/u.k
	switch {
	case rx != tx:
		return topology.FbflyRowPort(u.k, u.conc, rx, tx)
	case ry != ty:
		return topology.FbflyColPort(u.k, u.conc, ry, ty)
	default:
		return -1
	}
}

func (u *ugal) Inject(srcRouter int, pr *PacketRoute, q QueueEstimator, rng *xrand.Source) {
	destRouter, _ := u.topo.TerminalRouter(pr.DestTerminal)
	pr.Intermediate = -1
	pr.Phase = 1 // minimal packets use the second resource class throughout
	if rng == nil || q == nil {
		return
	}
	inter := rng.Intn(u.topo.Routers)
	if inter == srcRouter || inter == destRouter {
		return // degenerate Valiant path; route minimally
	}
	hMin := u.hops(srcRouter, destRouter)
	hVal := u.hops(srcRouter, inter) + u.hops(inter, destRouter)
	if hMin == 0 {
		return
	}
	qMin := q.Occupancy(srcRouter, u.firstHopPort(srcRouter, destRouter))
	qVal := q.Occupancy(srcRouter, u.firstHopPort(srcRouter, inter))
	// UGAL decision rule: take the Valiant path when its estimated delay
	// (queue × hops) undercuts the minimal path's by more than the
	// threshold.
	if qMin*hMin > qVal*hVal+u.threshold {
		pr.Intermediate = inter
		pr.Phase = 0
	}
}

func (u *ugal) NextHop(r int, pr *PacketRoute) (int, int) {
	if pr.Phase == 0 && pr.Intermediate < 0 {
		panic("routing: phase-0 packet without an intermediate router")
	}
	if pr.Phase == 0 && r == pr.Intermediate {
		pr.Phase = 1
	}
	destRouter, destPort := u.topo.TerminalRouter(pr.DestTerminal)
	target := destRouter
	if pr.Phase == 0 {
		target = pr.Intermediate
	}
	port := u.firstHopPort(r, target)
	if port < 0 {
		if pr.Phase != 1 {
			panic(fmt.Sprintf("routing: packet at destination router %d still in phase 0", r))
		}
		return destPort, 1
	}
	return port, pr.Phase
}
