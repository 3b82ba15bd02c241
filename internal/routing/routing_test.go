package routing

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/xrand"
)

type fakeQueues map[[2]int]int

func (f fakeQueues) Occupancy(r, p int) int { return f[[2]int{r, p}] }

func TestDORDeliversEveryPair(t *testing.T) {
	topo := topology.Mesh(8)
	f := NewDOR(topo)
	if _, ok := f.(*dor); !ok || f.ResourceClasses() != 1 {
		t.Fatal("bad DOR metadata")
	}
	for src := 0; src < 64; src++ {
		for dst := 0; dst < 64; dst++ {
			pr := PacketRoute{DestTerminal: dst, Intermediate: -1}
			r := src
			hops := 0
			for {
				port, class := f.NextHop(r, &pr)
				if class != 0 {
					t.Fatalf("DOR produced resource class %d", class)
				}
				if topo.IsTerminalPort(port) {
					if r != dst { // mesh: terminal t at router t
						t.Fatalf("src %d dst %d: ejected at router %d", src, dst, r)
					}
					break
				}
				ch := topo.Channels[topo.OutChannel[r][port]]
				r = ch.Dst
				hops++
				if hops > 14 {
					t.Fatalf("src %d dst %d: path too long", src, dst)
				}
			}
			// DOR path length is exactly the Manhattan distance.
			sx, sy := topology.MeshCoord(8, src)
			dx, dy := topology.MeshCoord(8, dst)
			want := abs(sx-dx) + abs(sy-dy)
			if hops != want {
				t.Fatalf("src %d dst %d: %d hops, want %d", src, dst, hops, want)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestDORXBeforeY(t *testing.T) {
	topo := topology.Mesh(8)
	f := NewDOR(topo)
	// From (0,0) to (3,3): first hops must all be +x.
	pr := PacketRoute{DestTerminal: 3*8 + 3, Intermediate: -1}
	port, _ := f.NextHop(0, &pr)
	if port != topology.MeshPortXPlus {
		t.Fatalf("first hop port %d, want +x", port)
	}
	// From (3,0) to (3,3): y hops.
	pr = PacketRoute{DestTerminal: 3*8 + 3}
	port, _ = f.NextHop(3, &pr)
	if port != topology.MeshPortYPlus {
		t.Fatalf("aligned-x hop port %d, want +y", port)
	}
}

func TestDORRequiresMesh(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDOR(topology.FlattenedButterfly(4, 4))
}

func TestUGALMinimalDelivery(t *testing.T) {
	topo := topology.FlattenedButterfly(4, 4)
	f := NewUGAL(topo, 1)
	if _, ok := f.(*ugal); !ok || f.ResourceClasses() != 2 {
		t.Fatal("bad UGAL metadata")
	}
	// With nil estimator, routing is minimal (phase 1 throughout).
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 64; dst++ {
			pr := PacketRoute{DestTerminal: dst}
			f.(Injector).Inject(src, &pr, nil, nil)
			if pr.Phase != 1 || pr.Intermediate != -1 {
				t.Fatal("nil estimator should give minimal route")
			}
			r := src
			hops := 0
			for {
				port, class := f.NextHop(r, &pr)
				if class != 1 {
					t.Fatalf("minimal route should use class 1, got %d", class)
				}
				if topo.IsTerminalPort(port) {
					wantRouter, wantPort := topo.TerminalRouter(dst)
					if r != wantRouter || port != wantPort {
						t.Fatalf("src %d dst %d: ejected at (%d,%d), want (%d,%d)",
							src, dst, r, port, wantRouter, wantPort)
					}
					break
				}
				r = topo.Channels[topo.OutChannel[r][port]].Dst
				hops++
				if hops > 2 {
					t.Fatalf("src %d dst %d: minimal path exceeded 2 hops", src, dst)
				}
			}
		}
	}
}

func TestUGALValiantDelivery(t *testing.T) {
	topo := topology.FlattenedButterfly(4, 4)
	f := NewUGAL(topo, 0)
	rng := xrand.New(5)
	// Congest every minimal first hop so Valiant paths are taken.
	q := fakeQueues{}
	tookValiant := 0
	for trial := 0; trial < 2000; trial++ {
		src := rng.Intn(16)
		dst := rng.Intn(64)
		pr := PacketRoute{DestTerminal: dst}
		destRouter, _ := topo.TerminalRouter(dst)
		if destRouter == src {
			continue
		}
		// Make the minimal port look congested.
		for p := 4; p < 10; p++ {
			q[[2]int{src, p}] = 0
		}
		u := f.(*ugal)
		q[[2]int{src, u.firstHopPort(src, destRouter)}] = 50
		f.(Injector).Inject(src, &pr, q, rng)
		if pr.Intermediate < 0 {
			continue // the random intermediate may have been degenerate
		}
		tookValiant++
		if pr.Phase != 0 {
			t.Fatal("Valiant route must start in phase 0")
		}
		r := src
		hops := 0
		classes := []int{}
		sawIntermediate := false
		for {
			port, class := f.NextHop(r, &pr)
			classes = append(classes, class)
			if r == pr.Intermediate {
				sawIntermediate = true
			}
			if topo.IsTerminalPort(port) {
				wantRouter, _ := topo.TerminalRouter(dst)
				if r != wantRouter {
					t.Fatalf("Valiant route ejected at wrong router")
				}
				break
			}
			r = topo.Channels[topo.OutChannel[r][port]].Dst
			hops++
			if hops > 4 {
				t.Fatal("Valiant path exceeded 4 hops")
			}
		}
		if !sawIntermediate {
			t.Fatal("Valiant route skipped its intermediate router")
		}
		// Resource classes must be monotonically non-decreasing 0 -> 1.
		for i := 1; i < len(classes); i++ {
			if classes[i] < classes[i-1] {
				t.Fatalf("resource class regressed: %v", classes)
			}
		}
		if classes[len(classes)-1] != 1 {
			t.Fatalf("final class must be 1: %v", classes)
		}
	}
	if tookValiant == 0 {
		t.Fatal("congestion never triggered Valiant routing")
	}
}

func TestUGALPrefersMinimalWhenUncongested(t *testing.T) {
	topo := topology.FlattenedButterfly(4, 4)
	f := NewUGAL(topo, 1)
	rng := xrand.New(7)
	q := fakeQueues{} // all queues empty
	for trial := 0; trial < 500; trial++ {
		pr := PacketRoute{DestTerminal: rng.Intn(64)}
		f.(Injector).Inject(0, &pr, q, rng)
		if pr.Intermediate != -1 {
			t.Fatal("empty network must route minimally")
		}
	}
}

func TestUGALThresholdBias(t *testing.T) {
	topo := topology.FlattenedButterfly(4, 4)
	aggressive := NewUGAL(topo, 0)
	conservative := NewUGAL(topo, 100)
	q := fakeQueues{}
	for p := 4; p < 10; p++ {
		q[[2]int{0, p}] = 4
	}
	q[[2]int{0, 4}] = 12 // column-0 router's port toward column 1
	countVal := func(f Function, seed uint64) int {
		rng := xrand.New(seed)
		n := 0
		for trial := 0; trial < 500; trial++ {
			pr := PacketRoute{DestTerminal: 4} // router 1 (column 1), port 0
			f.(Injector).Inject(0, &pr, q, rng)
			if pr.Intermediate >= 0 {
				n++
			}
		}
		return n
	}
	if a, c := countVal(aggressive, 3), countVal(conservative, 3); a <= c {
		t.Fatalf("aggressive UGAL (%d) should misroute more than conservative (%d)", a, c)
	}
}

func TestUGALRequiresFbfly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUGAL(topology.Mesh(4), 1)
}

func TestUGALPhase0AtDestinationPanics(t *testing.T) {
	topo := topology.FlattenedButterfly(4, 4)
	f := NewUGAL(topo, 1)
	pr := PacketRoute{DestTerminal: 0, Intermediate: 5, Phase: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for phase-0 ejection")
		}
	}()
	// Router 0 is the destination router but the packet is still in phase 0
	// heading to intermediate 0? No: intermediate 5, so target is 5; at
	// router 0 target differs, no panic. Force the bad state instead:
	pr.Intermediate = 0
	pr.Phase = 0
	// r == intermediate flips phase; craft r == destRouter with phase 0 and
	// intermediate elsewhere unreachable: r==destRouter, target==inter==r?
	// The only way firstHopPort returns -1 in phase 0 is r==intermediate,
	// which flips the phase. So the panic guard requires a corrupted state:
	badPr := PacketRoute{DestTerminal: 0, Intermediate: -1, Phase: 0}
	f.NextHop(0, &badPr)
}

// TestOnlyUGALInjects: a simulator calls an Injector for every packet it
// opens, so a function that decides nothing at injection must not be one.
func TestOnlyUGALInjects(t *testing.T) {
	if f, ok := NewDOR(topology.Mesh(4)).(Injector); ok {
		t.Errorf("%T is an Injector", f)
	}
	if _, ok := NewUGAL(topology.FlattenedButterfly(4, 4), 1).(Injector); !ok {
		t.Error("ugal is not an Injector")
	}
}
