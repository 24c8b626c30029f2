package diagnose_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dayu/internal/diagnose"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/tracer"
	"dayu/internal/workflow"
	"dayu/internal/workloads"
)

// engineTraces runs one workload replica in process at its default
// config, the way `dayu run` does. Runs are virtual-time and repeat
// exactly, so their diagnose bytes can be pinned.
func engineTraces(t *testing.T, spec workflow.Spec, setup func(*workflow.Engine) error) ([]*trace.TaskTrace, *trace.Manifest) {
	t.Helper()
	eng, err := workflow.NewEngine(workflow.Cluster{Machine: sim.MachineCPU, Nodes: 2}, nil, tracer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := setup(eng); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Traces, res.Manifest
}

// TestAnalyzeGolden pins the bytes of EncodeJSON(Analyze(...)) — the
// body behind `dayu diagnose -json`, /v1/diagnose, /v1/live/diagnostics
// and the SSE findings — on the synthetic sets the serve tests and the
// benchmark use and on the three workload replicas. The hashes were
// recorded from the stateless buildContext + detect* rule set this
// package had before the index replaced it (commit 4b7b902) and must
// not move.
func TestAnalyzeGolden(t *testing.T) {
	serveFixture := workloads.SyntheticTraceConfig{Tasks: 24, Stages: 4, FilesPerStage: 3, DatasetsPerTask: 2}
	cases := []struct {
		name   string
		load   func(t *testing.T) ([]*trace.TaskTrace, *trace.Manifest)
		noMan  bool
		sha256 string
	}{
		{name: "synthetic-24/manifest", sha256: "fcb625ba55ae4455ec364c6b2b7386d68a9c4d161693a4ee27eb4a7dfb638c67",
			load: func(*testing.T) ([]*trace.TaskTrace, *trace.Manifest) {
				return workloads.GenerateSyntheticTraces(serveFixture)
			}},
		{name: "synthetic-24/nil-manifest", noMan: true, sha256: "df8a6ea8282cad7b78539d050b3f88b46da761121c530816457504f3699b00d9",
			load: func(*testing.T) ([]*trace.TaskTrace, *trace.Manifest) {
				return workloads.GenerateSyntheticTraces(serveFixture)
			}},
		{name: "synthetic-300/manifest", sha256: "f5b1c74bdd01011b467b0117a7b85cbb83e734cd90db9dcc417005a30c6bc642",
			load: func(*testing.T) ([]*trace.TaskTrace, *trace.Manifest) {
				return workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: 300})
			}},
		{name: "synthetic-300/nil-manifest", noMan: true, sha256: "cb29717f38bb84039759a14597d987d60ec6c72f6ff89eedf05ec4de02381953",
			load: func(*testing.T) ([]*trace.TaskTrace, *trace.Manifest) {
				return workloads.GenerateSyntheticTraces(workloads.SyntheticTraceConfig{Tasks: 300})
			}},
		{name: "ddmd", sha256: "6512f5021759c62ada40608244afc735c1870cae649ed2dd9a2f55bda6e925ff",
			load: func(t *testing.T) ([]*trace.TaskTrace, *trace.Manifest) {
				spec, setup := workloads.DDMD(workloads.DDMDConfig{})
				return engineTraces(t, spec, setup)
			}},
		{name: "pyflextrkr", sha256: "6d76a2902fe6c7f7be941d99081a44803172ec080d3f141dfaf6e740806f5dc1",
			load: func(t *testing.T) ([]*trace.TaskTrace, *trace.Manifest) {
				spec, setup := workloads.PyFlextrkr(workloads.PyFlextrkrConfig{})
				return engineTraces(t, spec, setup)
			}},
		{name: "arldm", sha256: "4e53cac78a8ce14d81149e88fa2b5a04416de9e247a1c150a1b0691c41ed5073",
			load: func(t *testing.T) ([]*trace.TaskTrace, *trace.Manifest) {
				spec, setup := workloads.ARLDM(workloads.ARLDMConfig{})
				return engineTraces(t, spec, setup)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traces, m := tc.load(t)
			if tc.noMan {
				m = nil
			}
			findings := diagnose.Analyze(traces, m, diagnose.Thresholds{})
			body, err := diagnose.EncodeJSON(findings)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Errorf("%d findings, %d bytes hash to %s, want %s", len(findings), len(body), got, tc.sha256)
			}
		})
	}
}
