package experiments

import "duet/internal/stats"

// Report is a machine-readable snapshot of the quantitative experiments —
// the data behind Figs. 11, 13-17 and Table III — for plotting or
// regression tracking across versions.
type Report struct {
	Schema int   `json:"schema"`
	Seed   int64 `json:"seed"`
	Runs   int   `json:"runs"`

	Fig11 []ReportSeries `json:"fig11"`
	Fig13 *Fig13Result   `json:"fig13"`
	Fig14 []SweepPoint   `json:"fig14"`
	Fig15 []SweepPoint   `json:"fig15"`
	Fig16 []SweepPoint   `json:"fig16"`
	Fig17 []SweepPoint   `json:"fig17"`
	Tab3  []Tab3Row      `json:"tab3"`
}

// ReportSeries is one model's Fig. 11/12 measurement set.
type ReportSeries struct {
	Model        string        `json:"model"`
	Framework    string        `json:"framework"`
	FrameworkCPU stats.Summary `json:"framework_cpu"`
	FrameworkGPU stats.Summary `json:"framework_gpu"`
	TVMCPU       stats.Summary `json:"tvm_cpu"`
	TVMGPU       stats.Summary `json:"tvm_gpu"`
	DUET         stats.Summary `json:"duet"`
	Placement    string        `json:"placement"`
	FellBack     bool          `json:"fell_back"`
}

// BuildReport runs the quantitative experiments and assembles the report.
func BuildReport(cfg Config) (*Report, error) {
	r := &Report{Schema: 1, Seed: cfg.Seed, Runs: cfg.Runs}

	runs, err := Fig11Data(cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range runs {
		r.Fig11 = append(r.Fig11, ReportSeries{
			Model:        m.Model,
			Framework:    m.Framework,
			FrameworkCPU: m.FrameworkCPU,
			FrameworkGPU: m.FrameworkGPU,
			TVMCPU:       m.TVMCPU,
			TVMGPU:       m.TVMGPU,
			DUET:         m.DUET,
			Placement:    m.Placement,
			FellBack:     m.FellBack,
		})
	}
	if r.Fig13, err = Fig13Data(cfg); err != nil {
		return nil, err
	}
	if r.Fig14, err = Fig14Data(cfg); err != nil {
		return nil, err
	}
	if r.Fig15, err = Fig15Data(cfg); err != nil {
		return nil, err
	}
	if r.Fig16, err = Fig16Data(cfg); err != nil {
		return nil, err
	}
	if r.Fig17, err = Fig17Data(cfg); err != nil {
		return nil, err
	}
	if r.Tab3, err = Tab3Data(cfg); err != nil {
		return nil, err
	}
	return r, nil
}
