package experiments

import "math"

// RateLattice quantizes offered loads onto an integer lattice: rate i is
// exactly float64(i) * Step, computed by this one function everywhere. The
// adaptive curve tracer and the batch CLIs both derive their rates from
// lattice indices, so the same index yields the same float64 bit pattern —
// and therefore the same sweep content key — no matter which tool asked.
// (Accumulating `r += step` in a loop does NOT reproduce these floats;
// always go through Rate.)
type RateLattice struct {
	// Step is the lattice quantum in flits/cycle/terminal.
	Step float64
}

// DefaultLatticeStep is the tracer's default rate quantum: fine enough that
// one lattice step of knee uncertainty is well under the paper grid's 0.05
// spacing, coarse enough that a full fixed grid stays enumerable.
const DefaultLatticeStep = 0.01

// Rate returns lattice point i's offered load. This is the canonical
// index→rate mapping; every simulated curve point's rate must come from it.
func (l RateLattice) Rate(i int) float64 { return float64(i) * l.Step }

// Index snaps a rate to its nearest lattice index.
func (l RateLattice) Index(r float64) int { return int(math.Round(r / l.Step)) }

// Snap returns the canonical rate nearest r: Rate(Index(r)).
func (l RateLattice) Snap(r float64) float64 { return l.Rate(l.Index(r)) }
