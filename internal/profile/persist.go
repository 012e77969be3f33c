package profile

import (
	"encoding/json"
	"fmt"
	"io"
)

// recordsFile is the persisted profile format. Profiling is an offline,
// one-time cost (§IV-B); persisting records lets deployments reuse them
// across engine restarts.
type recordsFile struct {
	Version int      `json:"version"`
	Model   string   `json:"model"`
	Records []Record `json:"records"`
}

// formatVersion identifies the persisted-profile schema.
const formatVersion = 1

// SaveRecords writes profiled records for the named model to w.
func SaveRecords(model string, records []Record, w io.Writer) error {
	return json.NewEncoder(w).Encode(recordsFile{Version: formatVersion, Model: model, Records: records})
}

// LoadRecords reads records written by SaveRecords, verifying they belong
// to the named model and cover exactly want subgraphs (pass want < 0 to
// skip the count check).
func LoadRecords(model string, want int, r io.Reader) ([]Record, error) {
	var rf recordsFile
	if err := json.NewDecoder(r).Decode(&rf); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if rf.Version != formatVersion {
		return nil, fmt.Errorf("profile: unsupported record version %d", rf.Version)
	}
	if rf.Model != model {
		return nil, fmt.Errorf("profile: records are for model %q, want %q", rf.Model, model)
	}
	if want >= 0 && len(rf.Records) != want {
		return nil, fmt.Errorf("profile: %d records for %d subgraphs — re-profile after re-partitioning", len(rf.Records), want)
	}
	for i, rec := range rf.Records {
		if rec.Index != i {
			return nil, fmt.Errorf("profile: record %d has index %d", i, rec.Index)
		}
		if rec.Time[0] <= 0 || rec.Time[1] <= 0 {
			return nil, fmt.Errorf("profile: record %d has non-positive times", i)
		}
	}
	return rf.Records, nil
}
