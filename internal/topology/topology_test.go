package topology

import "testing"

func TestMesh8x8Shape(t *testing.T) {
	m := Mesh(8)
	if m.Routers != 64 || m.Ports != 5 || m.Concentration != 1 {
		t.Fatalf("mesh: routers=%d ports=%d conc=%d", m.Routers, m.Ports, m.Concentration)
	}
	if m.Terminals() != 64 {
		t.Fatalf("terminals = %d, want 64", m.Terminals())
	}
	// 2 * (k*(k-1)) bidirectional links per dimension = 2*2*56 channels.
	if got, want := len(m.Channels), 2*2*8*7; got != want {
		t.Fatalf("channels = %d, want %d", got, want)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Channels {
		if c.Latency != 1 {
			t.Fatalf("mesh channel latency %d, want 1", c.Latency)
		}
	}
}

func TestMeshConnectivity(t *testing.T) {
	m := Mesh(4)
	// Router (1,1) = 5: +x to (2,1)=6, -x to (0,1)=4, +y to (1,2)=9, -y to (1,0)=1.
	cases := []struct{ port, dst int }{
		{MeshPortXPlus, 6}, {MeshPortXMinus, 4}, {MeshPortYPlus, 9}, {MeshPortYMinus, 1},
	}
	for _, c := range cases {
		ch := m.Channels[m.OutChannel[5][c.port]]
		if ch.Dst != c.dst {
			t.Errorf("port %d leads to %d, want %d", c.port, ch.Dst, c.dst)
		}
	}
	// Edge router 0 has no -x / -y channels.
	if m.OutChannel[0][MeshPortXMinus] != -1 || m.OutChannel[0][MeshPortYMinus] != -1 {
		t.Error("corner router should have unmapped minus ports")
	}
}

func TestMeshChannelsBidirectional(t *testing.T) {
	m := Mesh(8)
	for _, c := range m.Channels {
		found := false
		for _, rc := range m.Channels {
			if rc.Src == c.Dst && rc.Dst == c.Src {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("channel %d has no reverse", c.ID)
		}
	}
}

func TestMeshCoordRoundTrip(t *testing.T) {
	for r := 0; r < 64; r++ {
		x, y := MeshCoord(8, r)
		if y*8+x != r {
			t.Fatalf("coord round trip failed for %d", r)
		}
	}
}

func TestFbflyShape(t *testing.T) {
	f := FlattenedButterfly(4, 4)
	if f.Routers != 16 || f.Ports != 10 || f.Concentration != 4 {
		t.Fatalf("fbfly: routers=%d ports=%d conc=%d", f.Routers, f.Ports, f.Concentration)
	}
	if f.Terminals() != 64 {
		t.Fatalf("terminals = %d, want 64", f.Terminals())
	}
	// Each router has 3 row + 3 column outgoing channels.
	if got, want := len(f.Channels), 16*6; got != want {
		t.Fatalf("channels = %d, want %d", got, want)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFbflyLatencies(t *testing.T) {
	f := FlattenedButterfly(4, 4)
	// Latency must equal coordinate distance, within [1, 3].
	for _, c := range f.Channels {
		sx, sy := c.Src%4, c.Src/4
		dx, dy := c.Dst%4, c.Dst/4
		want := abs(sx-dx) + abs(sy-dy)
		if c.Latency != want {
			t.Fatalf("channel %d->%d latency %d, want %d", c.Src, c.Dst, c.Latency, want)
		}
		if c.Latency < 1 || c.Latency > 3 {
			t.Fatalf("latency %d outside [1,3]", c.Latency)
		}
		// Row/column connectivity only.
		if sx != dx && sy != dy {
			t.Fatalf("channel %d->%d is diagonal", c.Src, c.Dst)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestFbflyFullRowColumnConnectivity(t *testing.T) {
	f := FlattenedButterfly(4, 4)
	for r := 0; r < 16; r++ {
		dsts := map[int]bool{}
		for p := f.Concentration; p < f.Ports; p++ {
			ch := f.Channels[f.OutChannel[r][p]]
			dsts[ch.Dst] = true
		}
		rx, ry := r%4, r/4
		for o := 0; o < 16; o++ {
			ox, oy := o%4, o/4
			sameLine := (ox == rx) != (oy == ry) // same row xor same column, not self
			if sameLine && !dsts[o] {
				t.Fatalf("router %d missing link to %d", r, o)
			}
		}
		if len(dsts) != 6 {
			t.Fatalf("router %d connects to %d routers, want 6", r, len(dsts))
		}
	}
}

func TestFbflyPortHelpers(t *testing.T) {
	// Router at column 1: row ports to columns 0,2,3 are conc+0, conc+1, conc+2.
	if FbflyRowPort(4, 4, 1, 0) != 4 || FbflyRowPort(4, 4, 1, 2) != 5 || FbflyRowPort(4, 4, 1, 3) != 6 {
		t.Error("row port mapping wrong")
	}
	if FbflyColPort(4, 4, 0, 1) != 7 || FbflyColPort(4, 4, 0, 3) != 9 {
		t.Error("column port mapping wrong")
	}
	for _, fn := range []func(){
		func() { FbflyRowPort(4, 4, 1, 1) },
		func() { FbflyColPort(4, 4, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for self port")
				}
			}()
			fn()
		}()
	}
}

func TestTerminalMapping(t *testing.T) {
	f := FlattenedButterfly(4, 4)
	for term := 0; term < 64; term++ {
		r, p := f.TerminalRouter(term)
		if !f.IsTerminalPort(p) {
			t.Fatalf("terminal %d mapped to non-terminal port %d", term, p)
		}
		if f.RouterTerminal(r, p) != term {
			t.Fatalf("terminal %d mapping not invertible", term)
		}
	}
	m := Mesh(8)
	for term := 0; term < 64; term++ {
		r, p := m.TerminalRouter(term)
		if r != term || p != 0 {
			t.Fatalf("mesh terminal %d -> (%d,%d), want (%d,0)", term, r, p, term)
		}
	}
}

func TestTerminalPanics(t *testing.T) {
	m := Mesh(4)
	for _, fn := range []func(){
		func() { m.TerminalRouter(16) },
		func() { m.TerminalRouter(-1) },
		func() { m.RouterTerminal(0, 1) },
		func() { Mesh(1) },
		func() { FlattenedButterfly(1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
