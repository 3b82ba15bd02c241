package sim

import (
	"testing"

	"repro/internal/core"
)

// FuzzShardSchedule splits and merges a network on a schedule the fuzzer
// writes and holds its Result to the reference schedule's. sel picks the
// topology (bit 0), the speculation mode, the offered load and whether the
// lender recalls its helper every few askings; each byte of plan is one phase
// of 1 to 16 cycles (bits 1–4) with the helper wanted (bit 0) or not, and the
// phases repeat for the whole run. The run is under Validate, so every
// stepped cycle also checks that the network has two shards exactly when it
// holds a helper, and the wake index after every split and merge.
//
//	go test -run '^$' -fuzz FuzzShardSchedule -fuzztime 30s ./internal/sim/
func FuzzShardSchedule(f *testing.F) {
	for sel := 0; sel < 48; sel += 5 {
		f.Add(uint8(sel), uint64(sel), []byte{1, 0})                  // split and merge every cycle
		f.Add(uint8(sel+1), uint64(sel+1), []byte{5, 2, 31, 6, 1, 0}) // phases of 1 to 16 cycles
	}
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, plan []byte) {
		if len(plan) > 64 {
			plan = plan[:64]
		}
		var wanted []bool
		for _, b := range plan {
			for i := 0; i <= int(b>>1&15); i++ {
				wanted = append(wanted, b&1 == 1)
			}
		}
		mk := []func(int, float64) Config{meshConfig, fbflyConfig}[sel%2]
		cfg := mk(1, []float64{0.05, 0.15, 0.3, 0.45}[sel/6%4])
		cfg.SA.SpecMode = []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq}[sel/2%3]
		cfg.Seed = seed
		cfg.Warmup, cfg.Measure, cfg.Drain = 40, 120, 1000
		ref := cfg
		ref.Reference = true
		want := New(ref).Run()

		cfg.Validate = true
		n := New(cfg)
		n.BorrowHelpers(&testLender{recallEvery: int(sel / 24 % 2 * 5)})
		n.modeHook = func(now int64) bool { return len(wanted) > 0 && wanted[now%int64(len(wanted))] }
		if got := n.Run(); got != want {
			t.Fatalf("sel %d plan %v: diverged from the reference:\nreference: %+v\ndefault:   %+v", sel, plan, want, got)
		}
		if n.Shards() != 1 || n.helper != nil {
			t.Fatalf("sel %d plan %v: %d shards after Run, helper held %v", sel, plan, n.Shards(), n.helper != nil)
		}
	})
}
