package quality

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/xrand"
)

// The references: the request generators as they were before the batched
// draws — one xrand.Bool per entry — and the materialised request matrices
// the normaliser used to hand to alloc.NewMaximum. They exist only here; the
// workloads and the word-level normaliser are tested against them.

func refVCNext(w *VCWorkload, rng *xrand.Source, rate float64) []core.VCRequest {
	v := w.Spec.V()
	reqs := make([]core.VCRequest, w.Ports*v)
	for i := range reqs {
		if !rng.Bool(rate) {
			continue
		}
		m, r, _ := w.Spec.Decompose(i % v)
		lo, hi := w.Spec.SuccessorClasses(r)
		nr := lo + rng.Intn(hi-lo)
		reqs[i] = core.VCRequest{
			Active:     true,
			OutPort:    rng.Intn(w.Ports),
			Candidates: w.Spec.ClassMask(m, nr),
		}
	}
	return reqs
}

func refSwitchNext(w *SwitchWorkload, rng *xrand.Source, rate float64) []core.SwitchRequest {
	reqs := make([]core.SwitchRequest, w.Ports*w.VCs)
	for i := range reqs {
		if rng.Bool(rate) {
			reqs[i] = core.SwitchRequest{Active: true, OutPort: rng.Intn(w.Ports)}
		}
	}
	return reqs
}

// vcMatrix writes the bipartite request matrix of reqs into m (rows: input
// VCs, columns: output VCs across all ports) and returns m.
func vcMatrix(m *bitvec.Matrix, reqs []core.VCRequest, vcs int) *bitvec.Matrix {
	m.Reset()
	for i, r := range reqs {
		if r.Active {
			r.Candidates.ForEach(func(c int) { m.Set(i, r.OutPort*vcs+c) })
		}
	}
	return m
}

// switchMatrix writes the port-level request matrix of reqs into m (rows:
// input ports, columns: output ports) and returns m.
func switchMatrix(m *bitvec.Matrix, reqs []core.SwitchRequest, vcs int) *bitvec.Matrix {
	m.Reset()
	for i, r := range reqs {
		if r.Active {
			m.Set(i/vcs, r.OutPort)
		}
	}
	return m
}

// checkMatchSizes compares both normalisers with alloc.MatchSize on the
// materialised matrices, twice on the same scratch so that a block or row
// word left over from one request set cannot leak into the next.
func checkMatchSizes(t *testing.T, vcReqs []core.VCRequest, swReqs []core.SwitchRequest, ports, vcs int, rng *xrand.Source) {
	t.Helper()
	rows := make([]uint64, ports*vcs)
	for i := range rows {
		rows[i] = rng.Uint64()
	}
	blocks := make([]wordBlock, ports)
	swRows := make([]uint64, ports)
	var block wordBlock
	m := vcMatrix(bitvec.NewMatrix(ports*vcs, ports*vcs), vcReqs, vcs)
	for i, r := range vcReqs {
		want := 0
		if r.Active {
			want = r.Candidates.Count()
		}
		if got := m.Row(i).Count(); got != want {
			t.Fatalf("P=%d V=%d input VC %d: matrix row has %d entries, request %d candidates", ports, vcs, i, got, want)
		}
	}
	wantVC := alloc.MatchSize(m)
	wantSW := alloc.MatchSize(switchMatrix(bitvec.NewMatrix(ports, ports), swReqs, vcs))
	for pass := 0; pass < 2; pass++ {
		if got := vcMatchSize(vcReqs, rows, blocks); got != wantVC {
			t.Fatalf("P=%d V=%d pass %d: VC match size %d, alloc.MatchSize %d", ports, vcs, pass, got, wantVC)
		}
		if got := switchMatchSize(swReqs, vcs, swRows, &block); got != wantSW {
			t.Fatalf("P=%d V=%d pass %d: switch match size %d, alloc.MatchSize %d", ports, vcs, pass, got, wantSW)
		}
	}
}

// TestBatchedNextEqualsPerEntryDraws pins both workloads against the
// per-entry Bool loop: the same request sets and the same generator state
// after every trial, at the rates where FirstBelow draws nothing (0 and 1)
// and in between, on every design point of the figures. Every request set
// drawn is also sized by the normaliser and by alloc.MatchSize.
func TestBatchedNextEqualsPerEntryDraws(t *testing.T) {
	pts := []struct {
		ports int
		spec  core.VCSpec
	}{
		{5, core.NewVCSpec(2, 1, 1)}, {5, core.NewVCSpec(2, 1, 2)}, {5, core.NewVCSpec(2, 1, 4)},
		{10, core.NewVCSpec(2, 2, 1)}, {10, core.NewVCSpec(2, 2, 2)}, {10, core.NewVCSpec(2, 2, 4)},
	}
	scratch := xrand.New(99)
	for _, pt := range pts {
		for _, rate := range []float64{0, 0.001, 0.05, 0.5, 0.95, 1} {
			vw := NewVCWorkload(pt.ports, pt.spec, 17)
			sw := NewSwitchWorkload(pt.ports, pt.spec.V(), 17)
			vRef, sRef := xrand.New(17), xrand.New(17)
			for trial := 0; trial < 40; trial++ {
				got, want := vw.Next(rate), refVCNext(vw, vRef, rate)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("P=%d %s rate %g trial %d: VC request %d is %+v, per-entry draws give %+v",
							pt.ports, pt.spec, rate, trial, i, got[i], want[i])
					}
				}
				if *vw.rng != *vRef {
					t.Fatalf("P=%d %s rate %g trial %d: VC generator states diverged", pt.ports, pt.spec, rate, trial)
				}
				gotSW, wantSW := sw.Next(rate), refSwitchNext(sw, sRef, rate)
				for i := range wantSW {
					if gotSW[i] != wantSW[i] {
						t.Fatalf("P=%d V=%d rate %g trial %d: switch request %d is %+v, per-entry draws give %+v",
							pt.ports, pt.spec.V(), rate, trial, i, gotSW[i], wantSW[i])
					}
				}
				if *sw.rng != *sRef {
					t.Fatalf("P=%d V=%d rate %g trial %d: switch generator states diverged", pt.ports, pt.spec.V(), rate, trial)
				}
				checkMatchSizes(t, got, gotSW, pt.ports, pt.spec.V(), scratch)
			}
		}
	}
}

// FuzzMatchSize holds the word-level normaliser to alloc.MatchSize on the
// materialised matrix, for arbitrary VC request sets (any candidate word
// below V, not only class masks) and arbitrary switch request sets, at P and
// V from 1 to 64. The leading entries come from data, nine bytes each (port
// and activity, then the candidate word), the rest from a generator seeded
// with seed at the given density; candidate words AND up to three draws, so
// blocks range from dense to a column or two per row.
func FuzzMatchSize(f *testing.F) {
	for seed := uint64(0); seed < 48; seed++ {
		f.Add(uint8(seed*7), uint8(seed*13), uint8(seed*37), seed, []byte(nil))
	}
	f.Add(uint8(63), uint8(63), uint8(255), uint64(1), []byte(nil))
	f.Add(uint8(0), uint8(63), uint8(255), uint64(2), []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(3), uint8(2), uint8(0), uint64(3), []byte{1, 3, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ports, vcs, density uint8, seed uint64, data []byte) {
		p, v := int(ports)%64+1, int(vcs)%64+1
		mask := uint64(1)<<uint(v) - 1 // all ones at v = 64
		rng := xrand.New(seed)
		vcReqs := make([]core.VCRequest, p*v)
		swReqs := make([]core.SwitchRequest, p*v)
		for i := range vcReqs {
			var active bool
			var port int
			var cand uint64
			if len(data) >= 9 {
				active, port = data[0]&1 != 0, int(data[0]>>1)%p
				for _, b := range data[1:9] {
					cand = cand<<8 | uint64(b)
				}
				data = data[9:]
			} else {
				active, port = rng.Intn(256) < int(density), rng.Intn(p)
				cand = rng.Uint64()
				for k := rng.Intn(4); k > 0; k-- {
					cand &= rng.Uint64()
				}
			}
			if active {
				vcReqs[i] = core.VCRequest{Active: true, OutPort: port, Candidates: core.VCMask(cand & mask)}
				swReqs[i] = core.SwitchRequest{Active: true, OutPort: port, Spec: cand&1 != 0}
			}
		}
		checkMatchSizes(t, vcReqs, swReqs, p, v, rng)
	})
}

var sizeSink int

// BenchmarkMatchSize is ns per request set for the word-level normaliser
// against alloc.NewMaximum on the materialised matrix, on the fbfly 2x2x2
// design point at rate 0.5.
func BenchmarkMatchSize(b *testing.B) {
	const p = 10
	spec := core.NewVCSpec(2, 2, 2)
	v := spec.V()
	var vcPool [][]core.VCRequest
	var swPool [][]core.SwitchRequest
	vw, sw := NewVCWorkload(p, spec, 1), NewSwitchWorkload(p, v, 1)
	for i := 0; i < 64; i++ {
		vcPool = append(vcPool, append([]core.VCRequest(nil), vw.Next(0.5)...))
		swPool = append(swPool, append([]core.SwitchRequest(nil), sw.Next(0.5)...))
	}
	b.Run("vc/words", func(b *testing.B) {
		rows, blocks := make([]uint64, p*v), make([]wordBlock, p)
		for i := 0; i < b.N; i++ {
			sizeSink = vcMatchSize(vcPool[i%64], rows, blocks)
		}
	})
	b.Run("vc/matrix", func(b *testing.B) {
		max, m := alloc.NewMaximum(p*v, p*v), bitvec.NewMatrix(p*v, p*v)
		for i := 0; i < b.N; i++ {
			sizeSink = max.Allocate(vcMatrix(m, vcPool[i%64], v)).Count()
		}
	})
	b.Run("sw/words", func(b *testing.B) {
		rows := make([]uint64, p)
		var block wordBlock
		for i := 0; i < b.N; i++ {
			sizeSink = switchMatchSize(swPool[i%64], v, rows, &block)
		}
	})
	b.Run("sw/matrix", func(b *testing.B) {
		max, m := alloc.NewMaximum(p, p), bitvec.NewMatrix(p, p)
		for i := 0; i < b.N; i++ {
			sizeSink = max.Allocate(switchMatrix(m, swPool[i%64], v)).Count()
		}
	})
}
