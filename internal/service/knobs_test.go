package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mopac/internal/config"
	"mopac/internal/mc"
	"mopac/internal/sim"
)

// TestBatchRunAndJobBodyAgree decodes one knob blob that sets every
// config.Knobs field, once as a batch-file run and once as a job body,
// and requires both to describe the same run, with every knob landing
// in its sim.Config field.
func TestBatchRunAndJobBodyAgree(t *testing.T) {
	const knobs = `"instr_per_core": 20000, "cores": 2, "seed": 5,
		"nup": true, "rowpress": true, "chips": 2, "srq_size": 3,
		"drain_on_ref": 0, "rfm_level": 2, "max_postponed_refs": 3,
		"pinv_override": 8, "policy": "timeout", "timeout_ns": 150,
		"oracle": true`

	f, err := config.Load(strings.NewReader(
		`{"runs":[{"designs":["mopac-d"],"trhs":[250],"workloads":["lbm"],` + knobs + `}]}`))
	if err != nil {
		t.Fatal(err)
	}
	exps, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var req JobRequest
	dec := json.NewDecoder(strings.NewReader(`{"design":"mopac-d","trh":250,"workload":"lbm",` + knobs + `}`))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	kv := reflect.ValueOf(req.Knobs)
	for i := 0; i < kv.NumField(); i++ {
		if kv.Field(i).IsZero() {
			t.Fatalf("the blob leaves knob %s unset", kv.Type().Field(i).Name)
		}
	}
	job, err := req.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	batch := exps[0].Config
	if batch.Hash() != job.Hash() || !reflect.DeepEqual(batch, job) {
		t.Fatalf("batch run and job body differ:\nbatch %+v\njob   %+v", batch, job)
	}
	zero := 0
	want := sim.Config{
		Design: sim.DesignMoPACD, TRH: 250, Workload: "lbm",
		InstrPerCore: 20000, Cores: 2, Seed: 5, NUP: true, RowPress: true,
		Chips: 2, SRQSize: 3, DrainOnREF: &zero, RFMLevel: 2,
		MaxPostponedREFs: 3, PInvOverride: 8, Policy: mc.TimeoutPage,
		TimeoutNs: 150, TrackSecurity: true,
	}
	if !reflect.DeepEqual(job, want) {
		t.Fatalf("knobs mapped to\n%+v\nwant\n%+v", job, want)
	}
}
