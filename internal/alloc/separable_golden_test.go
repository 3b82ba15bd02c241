package alloc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/xrand"
)

// separableGolden pins, by SHA-256, the grants of the two separable
// allocators over separableCycles random request matrices per case, with a
// Reset halfway through. Cycle k draws its requests at density
// separableDensities[k%4], so every case sees sparse, medium, dense and full
// matrices against the arbiters' priority state.
var separableGolden = []struct {
	arch       Arch
	arb        arbiter.Kind
	rows, cols int
	want       string
}{
	{SepIF, arbiter.RoundRobin, 2, 2, "cd2ba3e6be4cec43743e314cf93bdaba72d74c77c402b20c7ab6c682a28ee073"},
	{SepIF, arbiter.RoundRobin, 5, 7, "46897dd6fbc7a430c7746b2ed5a5b291b47ecc877ad8d2499836799c8d511add"},
	{SepIF, arbiter.RoundRobin, 16, 3, "798434ddcdb819b3e18b1f3855ccc31806f14271a3df76cddfc28a0cd20bef4a"},
	{SepIF, arbiter.RoundRobin, 70, 65, "11ac913adef7d451459d31b58e75fca395cfbbe038a3fdbd92a49381dea4b361"},
	{SepIF, arbiter.Matrix, 2, 2, "cd2ba3e6be4cec43743e314cf93bdaba72d74c77c402b20c7ab6c682a28ee073"},
	{SepIF, arbiter.Matrix, 5, 7, "62a99b7e628893a9c403503abbebab8995b142af1e42a81c3fe2561803904668"},
	{SepIF, arbiter.Matrix, 16, 3, "1c2c804e664ebbd44692a13850732d9abfd1fe95c3653ea9ec242e15233afa5d"},
	{SepIF, arbiter.Matrix, 70, 65, "01f8459d0a1bc74262964c8f7223794e8510cb745570219b8ffd00668a26fd1a"},
	{SepOF, arbiter.RoundRobin, 2, 2, "4610d49c95c35c78201457bd578874246474c50291e11097e947f4cfcf77ac6e"},
	{SepOF, arbiter.RoundRobin, 5, 7, "691f3758dc49157df18a32400444320e626af01fe7b96be84a7306bbadca5cdb"},
	{SepOF, arbiter.RoundRobin, 16, 3, "e855a477706f30282344d8e45028b9395011e649699f55a229ac8f80bfbc153f"},
	{SepOF, arbiter.RoundRobin, 70, 65, "190a54de0d73ca8445bd317cf8f7f8cda6fefbb2265b5ee7cd74ff178f2e834b"},
	{SepOF, arbiter.Matrix, 2, 2, "4610d49c95c35c78201457bd578874246474c50291e11097e947f4cfcf77ac6e"},
	{SepOF, arbiter.Matrix, 5, 7, "85e79d0c3afe5fe2a4b56d53b778cf5cb1286e27b5fffed0dd2207f4a924bada"},
	{SepOF, arbiter.Matrix, 16, 3, "e409783a0a65179a47138868133decb08dff9372819e6a6f316185b0d8e70ca1"},
	{SepOF, arbiter.Matrix, 70, 65, "3270dcbf00c87485d54ad6ec8d66d4a188ed94f8fb6b644eca229bc3abf79575"},
}

const separableCycles = 2000

var separableDensities = [4]float64{0.05, 0.3, 0.7, 1}

func TestSeparableGrantsGolden(t *testing.T) {
	for _, g := range separableGolden {
		name := fmt.Sprintf("%s/%s %dx%d", g.arch, g.arb, g.rows, g.cols)
		a := New(Config{Arch: g.arch, Rows: g.rows, Cols: g.cols, ArbKind: g.arb})
		rng := xrand.New(uint64(1000*g.rows + g.cols))
		h := sha256.New()
		var word [8]byte
		for k := 0; k < separableCycles; k++ {
			if k == separableCycles/2 {
				a.Reset()
			}
			req := randomMatrix(rng, g.rows, g.cols, separableDensities[k%4])
			gnt := a.Allocate(req)
			if err := Validate(req, gnt); err != nil {
				t.Fatalf("%s cycle %d: %v", name, k, err)
			}
			for i := 0; i < g.rows; i++ {
				for _, w := range gnt.Row(i).Words() {
					binary.LittleEndian.PutUint64(word[:], w)
					h.Write(word[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("%s: grant digest %s, want %s", name, got, g.want)
		}
	}
}
