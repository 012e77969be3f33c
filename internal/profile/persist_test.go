package profile

import (
	"bytes"
	"strings"
	"testing"

	"duet/internal/device"
)

func TestSaveLoadRecords(t *testing.T) {
	g, p := wideDeepPartition(t)
	prof := New(device.NewPlatform(0))
	prof.Runs = 2
	records, err := prof.ProfileAll(g, p.Subgraphs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveRecords("wide_and_deep", records, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRecords("wide_and_deep", len(records), &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if back[i] != records[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, back[i], records[i])
		}
	}
}

func TestLoadRecordsValidation(t *testing.T) {
	g, p := wideDeepPartition(t)
	prof := New(device.NewPlatform(0))
	prof.Runs = 1
	records, err := prof.ProfileAll(g, p.Subgraphs())
	if err != nil {
		t.Fatal(err)
	}
	save := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := SaveRecords("m", records, &buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if _, err := LoadRecords("other", len(records), save()); err == nil {
		t.Errorf("wrong model name should fail")
	}
	if _, err := LoadRecords("m", len(records)+1, save()); err == nil {
		t.Errorf("wrong subgraph count should fail")
	}
	if _, err := LoadRecords("m", -1, save()); err != nil {
		t.Errorf("count check skip failed: %v", err)
	}
	if _, err := LoadRecords("m", 1, strings.NewReader("junk")); err == nil {
		t.Errorf("junk should fail")
	}
	if _, err := LoadRecords("m", 0, strings.NewReader(`{"version":9,"model":"m","records":[]}`)); err == nil {
		t.Errorf("bad version should fail")
	}
	if _, err := LoadRecords("m", 1, strings.NewReader(`{"version":1,"model":"m","records":[{"Index":5,"Time":[1,1]}]}`)); err == nil {
		t.Errorf("misindexed record should fail")
	}
	if _, err := LoadRecords("m", 1, strings.NewReader(`{"version":1,"model":"m","records":[{"Index":0,"Time":[0,1]}]}`)); err == nil {
		t.Errorf("non-positive time should fail")
	}
	// Record files written while records carried an Origin tag still load:
	// the decoder ignores the field.
	if recs, err := LoadRecords("m", 1, strings.NewReader(`{"version":1,"model":"m","records":[{"Index":0,"Time":[1,2],"Origin":"measured"}]}`)); err != nil || recs[0].Time[1] != 2 {
		t.Errorf("record with a legacy Origin field: %v, %+v", err, recs)
	}
}
