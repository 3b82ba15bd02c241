package experiments

import (
	"encoding/json"
	"io"

	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Report is the JSON-serializable container the command-line tools emit
// with their -json flag, so downstream plotting scripts can consume
// experiment data without screen-scraping tables.
type Report struct {
	// Experiment names the figure ("fig7", "fig13", ...).
	Experiment string `json:"experiment"`
	// Point labels the design point ("mesh 2x1x4"), if applicable.
	Point string `json:"point,omitempty"`
	// Quality carries matching-quality curves.
	Quality []QualityJSON `json:"quality,omitempty"`
	// Network carries latency/throughput curves.
	Network []NetworkJSON `json:"network,omitempty"`
	// Execution says how the simulations behind Network were executed. It is
	// the one part of a report that describes the run and not its result:
	// its counts move when the simulator's schedule changes, the results do
	// not.
	Execution *ExecStats `json:"execution,omitempty"`
}

// ExecStats adds up, over a set of completed simulations, how much of the
// schedule's machinery was used: cycles stepped (sim.Network.ParallelStats)
// against cycles leapt over (sim.Network.LeapStats), and the arrival gate
// draws behind them (sim.Network.ArrivalDraws). Execution reads one network's;
// a sweep server sums those of the units it simulates.
type ExecStats struct {
	Simulations   int64 `json:"simulations"`
	SteppedCycles int64 `json:"stepped_cycles"`
	Leaps         int64 `json:"leaps"`
	LeaptCycles   int64 `json:"leapt_cycles"`

	ArrivalDraws traffic.DrawStats `json:"arrival_draws"`
}

// Execution returns the ExecStats of one simulation run to completion on n.
func Execution(n *sim.Network) ExecStats {
	leaps, leapt := n.LeapStats()
	return ExecStats{
		Simulations:   1,
		SteppedCycles: n.ParallelStats().Stepped,
		Leaps:         leaps,
		LeaptCycles:   leapt,
		ArrivalDraws:  n.ArrivalDraws(),
	}
}

// Add adds o's counts to st.
func (st *ExecStats) Add(o ExecStats) {
	st.Simulations += o.Simulations
	st.SteppedCycles += o.SteppedCycles
	st.Leaps += o.Leaps
	st.LeaptCycles += o.LeaptCycles
	st.ArrivalDraws.Add(o.ArrivalDraws)
}

// QualityJSON is one matching-quality curve.
type QualityJSON struct {
	Name    string    `json:"name"`
	Rate    []float64 `json:"rate"`
	Quality []float64 `json:"quality"`
}

// NetworkJSON is one latency/throughput curve.
type NetworkJSON struct {
	Name       string    `json:"name"`
	Rate       []float64 `json:"rate"`
	Latency    []float64 `json:"latency"`
	Throughput []float64 `json:"throughput"`
	Saturated  []bool    `json:"saturated"`
}

// QualityReport packages quality curves as a Report.
func QualityReport(experiment string, pt Point, series []quality.Series) Report {
	r := Report{Experiment: experiment, Point: pt.String()}
	for _, s := range series {
		q := QualityJSON{Name: s.Name}
		for _, p := range s.Points {
			q.Rate = append(q.Rate, p.Rate)
			q.Quality = append(q.Quality, p.Quality)
		}
		r.Quality = append(r.Quality, q)
	}
	return r
}

// NetworkReport packages latency curves as a Report.
func NetworkReport(experiment string, pt Point, series []NetSeries) Report {
	r := Report{Experiment: experiment, Point: pt.String()}
	for _, s := range series {
		n := NetworkJSON{Name: s.Name}
		for _, p := range s.Points {
			n.Rate = append(n.Rate, p.Rate)
			n.Latency = append(n.Latency, p.Latency)
			n.Throughput = append(n.Throughput, p.Throughput)
			n.Saturated = append(n.Saturated, p.Saturated)
		}
		r.Network = append(r.Network, n)
	}
	return r
}

// WriteJSON encodes the report with indentation.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
