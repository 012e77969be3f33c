package experiments

import (
	"encoding/json"
	"io"

	"duet/internal/models"
	"duet/internal/obs"
	"duet/internal/schedule"
	"duet/internal/workload"
)

// ObsReport is the machine-readable observability benchmark: the metrics
// snapshot of an instrumented engine driven through plain and parallel
// runs, plus the scheduler's placement audit for the same model. Committed
// as BENCH_obs.json so metric names and audit shape are diffable across
// revisions.
type ObsReport struct {
	Model   string          `json:"model"`
	Runs    int             `json:"runs"`
	Metrics obs.Snapshot    `json:"metrics"`
	Audit   *schedule.Audit `json:"audit"`
}

// BuildObsReport instruments a Wide&Deep engine, exercises every metered
// path (Run, and the synchronization queues via RunParallel), and returns
// the collected registry snapshot with the placement audit.
func BuildObsReport(cfg Config) (*ObsReport, error) {
	wd := models.DefaultWideDeep()
	g, err := models.WideDeep(wd)
	if err != nil {
		return nil, err
	}
	e, err := buildEngine(g, cfg)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	e.Instrument(reg)

	if _, err := e.Measure(cfg.Runs); err != nil {
		return nil, err
	}

	inputs := workload.WideDeepInputs(wd, cfg.Seed)
	if _, err := e.InferParallel(inputs); err != nil {
		return nil, err
	}

	audit, err := e.ScheduleAudit()
	if err != nil {
		return nil, err
	}
	return &ObsReport{
		Model:   g.Name,
		Runs:    cfg.Runs,
		Metrics: reg.Snapshot(),
		Audit:   audit,
	}, nil
}

// WriteJSON writes the report as indented JSON.
func (r *ObsReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
