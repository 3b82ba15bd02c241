package quality

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
)

// goldenTrials keeps the golden tables quick; the normaliser and the request
// streams are exercised at every rate of DefaultRates all the same.
const goldenTrials = 40

// goldenTables pins, by SHA-256, what FormatSeries prints for the four
// classes the quality_openloop benchmark runs (vc fbfly C=2, sw fbfly C=2,
// vc mesh C=4, sw mesh C=1) at two seeds. The digests were recorded with the
// matrix normaliser (VCWorkload.Matrix/SwitchWorkload.Matrix feeding
// alloc.NewMaximum) and per-entry Bool draws, so they carry the claim that the
// word-level normaliser and the batched draws change no table.
var goldenTables = []struct {
	unit  string
	ports int
	spec  core.VCSpec
	seed  uint64
	want  string
}{
	{"vc", 10, core.NewVCSpec(2, 2, 2), 1, "2f230eb48781972d83a628ad081c523eaf527cb78cf206d4d0295644c60dec6a"},
	{"vc", 10, core.NewVCSpec(2, 2, 2), 51, "60b80041a446026707ef649c922d87bda8c97e5fb1a3c6008710652bba367e43"},
	{"sw", 10, core.NewVCSpec(2, 2, 2), 1, "1c6bcc57f134a26251570e692699f9c11ed076a94d62301104f675511eaafcd4"},
	{"sw", 10, core.NewVCSpec(2, 2, 2), 51, "baeb95613a7ac64ce431324be1f8ab385780616e5ab99b262d640af416606e0f"},
	{"vc", 5, core.NewVCSpec(2, 1, 4), 1, "413a6ea13ed0941bcd4282353057eca195bd58c94b85e9768c0c318e735c2d59"},
	{"vc", 5, core.NewVCSpec(2, 1, 4), 51, "1393377f82e514b57f566062eac7f7c037d1a80925fe5cac174b3a4febef3d2a"},
	{"sw", 5, core.NewVCSpec(2, 1, 1), 1, "6230d122c255539ad4ccb11085e81a2668fe0372402a8d4580d9f61317255b76"},
	{"sw", 5, core.NewVCSpec(2, 1, 1), 51, "0c4141b860a3035f619fd6db3a2730bf517a82adf8cba5fc3c351876450e7aed"},
}

func TestQualityTablesGolden(t *testing.T) {
	archs := []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront}
	for _, g := range goldenTables {
		var series []Series
		if g.unit == "vc" {
			var cfgs []core.VCAllocConfig
			for _, a := range archs {
				cfgs = append(cfgs, vcCfg(g.ports, g.spec, a))
			}
			series = VCSeriesMulti(cfgs, DefaultRates(), goldenTrials, g.seed, 2)
		} else {
			var cfgs []core.SwitchAllocConfig
			for _, a := range archs {
				cfgs = append(cfgs, swCfg(g.ports, g.spec.V(), a))
			}
			series = SwitchSeriesMulti(cfgs, DefaultRates(), goldenTrials, g.seed, 2)
		}
		sum := sha256.Sum256([]byte(FormatSeries(series)))
		if got := hex.EncodeToString(sum[:]); got != g.want {
			name := fmt.Sprintf("%s P=%d %s seed %d", g.unit, g.ports, g.spec, g.seed)
			t.Errorf("%s: table digest %s, want %s\n%s", name, got, g.want, FormatSeries(series))
		}
	}
}
