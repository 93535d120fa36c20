// Package report defines the machine-readable result schema shared by
// every consumer of the experiment harness: cmd/experiments -json and
// the simd service's run results encode scheme series with the same
// field names, so a client can parse a CLI dump and a service response
// with one decoder.
package report

import (
	"encoding/json"
	"io"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// Thread is one hardware thread of a mix run.
type Thread struct {
	Benchmark   string  `json:"benchmark"`
	Committed   uint64  `json:"committed"`
	IPC         float64 `json:"ipc"`
	WeightedIPC float64 `json:"weighted_ipc"`
}

// Row is one mix's outcome under one scheme.
type Row struct {
	Mix            string   `json:"mix"`
	FairThroughput float64  `json:"fair_throughput"`
	Throughput     float64  `json:"throughput"`
	DoDMean        float64  `json:"dod_mean"`
	Cycles         int64    `json:"cycles"`
	Threads        []Thread `json:"threads,omitempty"`
	DoDHist        []uint64 `json:"dod_hist,omitempty"`
	// Telemetry is the run's stall-attribution and occupancy digest,
	// present only when the sweep ran with telemetry enabled.
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
}

// Series is one scheme evaluated over a set of mixes.
type Series struct {
	Label   string  `json:"label"`
	AvgFT   float64 `json:"avg_fair_throughput"`
	AvgDoD  float64 `json:"avg_dod"`
	AvgIPC  float64 `json:"avg_ipc"`
	Speedup float64 `json:"speedup"`
	Rows    []Row   `json:"rows"`
}

// Figure groups the series of one paper figure.
type Figure struct {
	Title  string   `json:"title"`
	Series []Series `json:"series"`
}

// SweepPoint mirrors experiments.SweepPoint.
type SweepPoint struct {
	Label  string  `json:"label"`
	Value  int     `json:"value"`
	AvgFT  float64 `json:"avg_fair_throughput"`
	AvgDoD float64 `json:"avg_dod"`
}

// Sweep is one parameter sweep.
type Sweep struct {
	Title  string       `json:"title"`
	Points []SweepPoint `json:"points"`
}

// Document is the top-level cmd/experiments -json output.
type Document struct {
	Budget    uint64   `json:"budget"`
	Seed      uint64   `json:"seed"`
	GoVersion string   `json:"go_version"`
	Figures   []Figure `json:"figures,omitempty"`
	Sweeps    []Sweep  `json:"sweeps,omitempty"`
}

// NewDocument starts a document for the given sweep parameters.
func NewDocument(budget, seed uint64) *Document {
	return &Document{Budget: budget, Seed: seed, GoVersion: runtime.Version()}
}

// AddFigure converts and appends one figure's series.
func (d *Document) AddFigure(title string, series []experiments.SchemeSeries, withHist bool) {
	fig := Figure{Title: title}
	for _, s := range series {
		fig.Series = append(fig.Series, FromSeries(s, withHist))
	}
	d.Figures = append(d.Figures, fig)
}

// AddSweep converts and appends one parameter sweep.
func (d *Document) AddSweep(title string, pts []experiments.SweepPoint) {
	sw := Sweep{Title: title}
	for _, p := range pts {
		sw.Points = append(sw.Points, SweepPoint{Label: p.Label, Value: p.Value, AvgFT: p.AvgFT, AvgDoD: p.AvgDoD})
	}
	d.Sweeps = append(d.Sweeps, sw)
}

// WriteJSON renders the document indented, for diffability.
func (d *Document) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// FromSeries converts an experiments series to its wire form. withHist
// additionally carries the per-mix DoD histograms (Figures 1/3/7).
func FromSeries(s experiments.SchemeSeries, withHist bool) Series {
	out := Series{
		Label:   s.Label,
		AvgFT:   s.AvgFT,
		AvgDoD:  s.AvgDoD,
		AvgIPC:  s.AvgIPC,
		Speedup: s.Speedup,
		Rows:    make([]Row, len(s.Rows)),
	}
	for i, r := range s.Rows {
		row := Row{
			Mix:            r.Mix,
			FairThroughput: r.FairThroughput,
			Throughput:     r.Throughput,
			DoDMean:        r.DoDMean,
			Cycles:         r.Result.Cycles,
			Telemetry:      r.Result.Telemetry,
		}
		for _, th := range r.Result.Threads {
			row.Threads = append(row.Threads, Thread{
				Benchmark:   th.Benchmark,
				Committed:   th.Committed,
				IPC:         th.IPC,
				WeightedIPC: th.WeightedIPC,
			})
		}
		if withHist && r.Result.Raw.DoDHist != nil {
			row.DoDHist = append([]uint64(nil), r.Result.Raw.DoDHist.Counts...)
		}
		out.Rows[i] = row
	}
	return out
}
