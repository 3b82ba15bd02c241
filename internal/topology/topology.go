// Package topology builds the two 64-node network topologies evaluated in
// Becker & Dally (SC '09) §3: an 8×8 mesh with one terminal per router
// (P = 5) and a two-dimensional 4×4 flattened butterfly with concentration
// four (P = 10).
//
// Conventions shared with the router and routing packages:
//   - Router ports [0, Concentration) attach terminals.
//   - Remaining ports carry inter-router channels; OutChannel/InChannel give
//     the port↔channel mapping.
//   - Terminal t attaches to router t/Concentration at port t%Concentration.
package topology

import "fmt"

// Channel is a unidirectional inter-router link.
type Channel struct {
	// ID is the channel's index in Topology.Channels.
	ID int
	// Src and Dst are router indices.
	Src, Dst int
	// SrcPort is the output port at Src; DstPort is the input port at Dst.
	SrcPort, DstPort int
	// Latency is the traversal time in cycles (1 for the mesh, 1–3 for the
	// flattened butterfly, §3.2).
	Latency int
}

// Topology describes a network of uniform-radix routers.
type Topology struct {
	// Name is "mesh" or "fbfly".
	Name string
	// Routers is the number of routers.
	Routers int
	// Ports is the router radix P (terminal + network ports).
	Ports int
	// Concentration is the number of terminals per router.
	Concentration int
	// Channels lists all unidirectional inter-router channels.
	Channels []Channel
	// OutChannel[r][p] is the channel leaving router r at output port p, or
	// -1 for terminal ports.
	OutChannel [][]int
	// InChannel[r][p] is the channel entering router r at input port p, or
	// -1 for terminal ports.
	InChannel [][]int
}

// Terminals returns the number of network terminals.
func (t *Topology) Terminals() int { return t.Routers * t.Concentration }

// TerminalRouter returns the router and local port a terminal attaches to.
func (t *Topology) TerminalRouter(term int) (router, port int) {
	if term < 0 || term >= t.Terminals() {
		panic(fmt.Sprintf("topology: terminal %d out of range", term))
	}
	return term / t.Concentration, term % t.Concentration
}

// RouterTerminal returns the terminal attached to router r's terminal port
// p (p < Concentration).
func (t *Topology) RouterTerminal(r, p int) int {
	if p >= t.Concentration {
		panic(fmt.Sprintf("topology: port %d is not a terminal port", p))
	}
	return r*t.Concentration + p
}

// IsTerminalPort reports whether port p attaches a terminal.
func (t *Topology) IsTerminalPort(p int) bool { return p < t.Concentration }

// Validate checks structural invariants; it is exercised by tests and cheap
// enough to call after construction.
func (t *Topology) Validate() error {
	if len(t.OutChannel) != t.Routers || len(t.InChannel) != t.Routers {
		return fmt.Errorf("topology: port map size mismatch")
	}
	for r := 0; r < t.Routers; r++ {
		if len(t.OutChannel[r]) != t.Ports || len(t.InChannel[r]) != t.Ports {
			return fmt.Errorf("topology: router %d port map has wrong width", r)
		}
		for p := 0; p < t.Ports; p++ {
			oc, ic := t.OutChannel[r][p], t.InChannel[r][p]
			if t.IsTerminalPort(p) {
				if oc != -1 || ic != -1 {
					return fmt.Errorf("topology: router %d terminal port %d mapped to channel", r, p)
				}
				continue
			}
			// Boundary routers (e.g. mesh edges) may leave network ports
			// unconnected; the radix stays uniform per the paper's design
			// points.
			if oc == -1 && ic == -1 {
				continue
			}
			if oc < 0 || oc >= len(t.Channels) || ic < 0 || ic >= len(t.Channels) {
				return fmt.Errorf("topology: router %d port %d half-mapped", r, p)
			}
			c := t.Channels[oc]
			if c.Src != r || c.SrcPort != p {
				return fmt.Errorf("topology: channel %d inconsistent with out map", oc)
			}
			c = t.Channels[ic]
			if c.Dst != r || c.DstPort != p {
				return fmt.Errorf("topology: channel %d inconsistent with in map", ic)
			}
		}
	}
	for _, c := range t.Channels {
		if c.Latency < 1 {
			return fmt.Errorf("topology: channel %d has latency %d", c.ID, c.Latency)
		}
	}
	return nil
}

func newEmpty(name string, routers, ports, conc int) *Topology {
	t := &Topology{Name: name, Routers: routers, Ports: ports, Concentration: conc}
	t.OutChannel = make([][]int, routers)
	t.InChannel = make([][]int, routers)
	for r := range t.OutChannel {
		t.OutChannel[r] = make([]int, ports)
		t.InChannel[r] = make([]int, ports)
		for p := range t.OutChannel[r] {
			t.OutChannel[r][p] = -1
			t.InChannel[r][p] = -1
		}
	}
	return t
}

func (t *Topology) addChannel(src, srcPort, dst, dstPort, latency int) {
	c := Channel{ID: len(t.Channels), Src: src, Dst: dst, SrcPort: srcPort, DstPort: dstPort, Latency: latency}
	t.Channels = append(t.Channels, c)
	t.OutChannel[src][srcPort] = c.ID
	t.InChannel[dst][dstPort] = c.ID
}

// Mesh port layout: port 0 = terminal, 1 = +x, 2 = -x, 3 = +y, 4 = -y.
const (
	MeshPortTerminal = 0
	MeshPortXPlus    = 1
	MeshPortXMinus   = 2
	MeshPortYPlus    = 3
	MeshPortYMinus   = 4
)

// Mesh builds a k×k mesh with one terminal per router (the paper's mesh is
// 8×8). All channels have unit latency.
func Mesh(k int) *Topology { return MeshWithLatency(k, 1) }

// MeshWithLatency builds a k×k mesh whose channels all have the given
// latency in cycles; latencies above one model repeated or long global
// wires between routers.
func MeshWithLatency(k, latency int) *Topology {
	if k < 2 {
		panic("topology: mesh requires k >= 2")
	}
	if latency < 1 {
		panic("topology: mesh channel latency must be >= 1")
	}
	t := newEmpty("mesh", k*k, 5, 1)
	id := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				t.addChannel(id(x, y), MeshPortXPlus, id(x+1, y), MeshPortXMinus, latency)
				t.addChannel(id(x+1, y), MeshPortXMinus, id(x, y), MeshPortXPlus, latency)
			}
			if y+1 < k {
				t.addChannel(id(x, y), MeshPortYPlus, id(x, y+1), MeshPortYMinus, latency)
				t.addChannel(id(x, y+1), MeshPortYMinus, id(x, y), MeshPortYPlus, latency)
			}
		}
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	return t
}

// MeshCoord returns the (x, y) coordinate of router r in a k×k mesh.
func MeshCoord(k, r int) (x, y int) { return r % k, r / k }

// FlattenedButterfly builds a two-dimensional k×k flattened butterfly with
// the given concentration (the paper's network is 4×4 with concentration 4,
// P = 10). Routers in the same row or column are fully connected; channel
// latency equals the coordinate distance between the routers (1–3 cycles
// for k = 4, §3.2).
//
// Port layout for router (x, y): ports [0, conc) are terminals; the next
// k-1 ports connect to the other routers in the same row (ascending x,
// skipping self); the final k-1 ports connect to the other routers in the
// same column (ascending y, skipping self).
func FlattenedButterfly(k, conc int) *Topology {
	if k < 2 || conc < 1 {
		panic("topology: fbfly requires k >= 2, conc >= 1")
	}
	ports := conc + 2*(k-1)
	t := newEmpty("fbfly", k*k, ports, conc)
	id := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			r := id(x, y)
			for ox := 0; ox < k; ox++ {
				if ox == x {
					continue
				}
				lat := ox - x
				if lat < 0 {
					lat = -lat
				}
				t.addChannel(r, FbflyRowPort(k, conc, x, ox), id(ox, y), FbflyRowPort(k, conc, ox, x), lat)
			}
			for oy := 0; oy < k; oy++ {
				if oy == y {
					continue
				}
				lat := oy - y
				if lat < 0 {
					lat = -lat
				}
				t.addChannel(r, FbflyColPort(k, conc, y, oy), id(x, oy), FbflyColPort(k, conc, oy, y), lat)
			}
		}
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	return t
}

// FbflyRowPort returns the output port at a router in column x leading to
// column ox in the same row.
func FbflyRowPort(k, conc, x, ox int) int {
	if ox == x {
		panic("topology: no self row port")
	}
	idx := ox
	if ox > x {
		idx--
	}
	return conc + idx
}

// FbflyColPort returns the output port at a router in row y leading to row
// oy in the same column.
func FbflyColPort(k, conc, y, oy int) int {
	if oy == y {
		panic("topology: no self column port")
	}
	idx := oy
	if oy > y {
		idx--
	}
	return conc + (k - 1) + idx
}
