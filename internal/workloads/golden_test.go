package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/graph"
	"dayu/internal/trace"
	"dayu/internal/workflow"
)

// TestGraphGolden pins the analyzer's output bytes: the SHA-256 of FTG
// JSON + DOT and of SDG JSON + DOT (regions and File-Metadata on) for
// the synthetic trace set at two sizes, with and without a manifest,
// and for the three paper replicas at their default configurations
// (restamped: the tracer reads the wall clock).
// The equivalence tests compare one build against another; this one
// compares today's build against every earlier one, so a change to the
// graph assembly cannot move both sides of a comparison at once. The
// hashes were recorded while the 3000-task rows still came from the
// sharded merge that PR 23 deleted.
func TestGraphGolden(t *testing.T) {
	type input struct {
		traces   []*trace.TaskTrace
		manifest *trace.Manifest
	}
	synthetic := func(tasks int, manifest bool) func(*testing.T) input {
		return func(*testing.T) input {
			traces, m := GenerateSyntheticTraces(SyntheticTraceConfig{Tasks: tasks})
			if !manifest {
				m = nil
			}
			return input{traces, m}
		}
	}
	replica := func(spec workflow.Spec, setup func(*workflow.Engine) error) func(*testing.T) input {
		return func(t *testing.T) input {
			res := runWorkload(t, spec, setup)
			restamp(res.Traces)
			return input{res.Traces, res.Manifest}
		}
	}
	for _, tc := range []struct {
		name     string
		load     func(*testing.T) input
		ftg, sdg string
	}{
		{"synthetic-24", synthetic(24, true),
			"c805f437dba7a1e0c073861127a9d22c8c78b285ac3b2ef714e20e1a4c29cdac",
			"8a23a6fd7f6916c07fd109386beb97952b13be734d1d932c3691888c31fd7ae1"},
		{"synthetic-24-nomanifest", synthetic(24, false),
			"c805f437dba7a1e0c073861127a9d22c8c78b285ac3b2ef714e20e1a4c29cdac",
			"8a23a6fd7f6916c07fd109386beb97952b13be734d1d932c3691888c31fd7ae1"},
		{"synthetic-3000", synthetic(3000, true),
			"d38bf0d863998d65c1236451664f9463f0669d961f3a928c9a41ffbb1cee1459",
			"6f114be4871d19eea3b304eef02c53bfd32a939d3300c491527c6da96bbead18"},
		{"synthetic-3000-nomanifest", synthetic(3000, false),
			"d38bf0d863998d65c1236451664f9463f0669d961f3a928c9a41ffbb1cee1459",
			"6f114be4871d19eea3b304eef02c53bfd32a939d3300c491527c6da96bbead18"},
		{"pyflextrkr", replica(PyFlextrkr(PyFlextrkrConfig{})),
			"8c8748e9569ba90dff6686a9432226249e6a197c3d5478f498e29674c8a9db80",
			"8fcbfded99f7f080a587a02b3e2300ad4cbc33bacf11af3c08eaf8d475a5a21e"},
		{"ddmd", replica(DDMD(DDMDConfig{})),
			"3ab2c91866954d54757a1bfb93437c3cc76aa2a5e55a2534c0b0307ad8218f8a",
			"b6f949d46f889033b64d1ea4d8c890ea62b85f928e21856a1f677c3d162d65f0"},
		{"arldm", replica(ARLDM(ARLDMConfig{})),
			"4e4b421d27b5e770ebd096d214a463019b8211c74ec57828808c0435c4103e06",
			"919489a93ac1e145c2769884b65797b9ae6827a3696bbf7e1c09260b2ece3635"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.load(t)
			hash := func(dot, js string) string {
				h := sha256.New()
				h.Write([]byte(js))
				h.Write([]byte(dot))
				return hex.EncodeToString(h.Sum(nil))
			}
			ftg := analyzer.BuildFTG(in.traces, in.manifest)
			sdg := analyzer.BuildSDG(in.traces, in.manifest, analyzer.Options{IncludeRegions: true, IncludeFileMetadata: true})
			if got := hash(renderGraph(t, ftg)); got != tc.ftg {
				t.Errorf("ftg: sha256(json+dot) = %s, want %s", got, tc.ftg)
			}
			if got := hash(renderGraph(t, sdg)); got != tc.sdg {
				t.Errorf("sdg: sha256(json+dot) = %s, want %s", got, tc.sdg)
			}
			checkIndentedJSON(t, "ftg", ftg)
			checkIndentedJSON(t, "sdg", sdg)
		})
	}
}

// TestIndentedJSONMatchesMarshalIndent holds Graph.IndentedJSON to
// json.MarshalIndent on the 1000-task synthetic FTG and SDG, the
// state-sized graphs serve renders; TestGraphGolden checks it on the
// golden graphs.
func TestIndentedJSONMatchesMarshalIndent(t *testing.T) {
	traces, m := GenerateSyntheticTraces(SyntheticTraceConfig{Tasks: 1000})
	checkIndentedJSON(t, "ftg", analyzer.BuildFTG(traces, m))
	checkIndentedJSON(t, "sdg", analyzer.BuildSDG(traces, m, analyzer.Options{IncludeRegions: true, IncludeFileMetadata: true}))
}

// checkIndentedJSON fails t unless g.IndentedJSON writes the bytes of
// json.MarshalIndent(g, "", " ").
func checkIndentedJSON(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	got, err := g.IndentedJSON()
	if err != nil {
		t.Fatalf("%s: IndentedJSON: %v", name, err)
	}
	want, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatalf("%s: json.MarshalIndent: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: IndentedJSON (%d bytes) differs from json.MarshalIndent (%d bytes)", name, len(got), len(want))
	}
}

// restamp replaces every wall-clock timestamp of an in-process run with
// one derived from the record's position, so the traces — and the time
// windows and bandwidths the builders compute from them — repeat
// exactly from run to run.
func restamp(traces []*trace.TaskTrace) {
	for i, tt := range traces {
		base := int64(i+1) * 1_000_000
		tt.StartNS, tt.EndNS = base, base+900_000
		for j := range tt.Files {
			tt.Files[j].OpenNS, tt.Files[j].CloseNS = base+int64(j)*1000, base+int64(j)*1000+500_000
		}
		for j := range tt.Objects {
			tt.Objects[j].AcquiredNS, tt.Objects[j].ReleasedNS = base+int64(j)*100, base+int64(j)*100+400_000
		}
		for j := range tt.Mapped {
			tt.Mapped[j].FirstNS, tt.Mapped[j].LastNS = base+int64(j)*10, base+int64(j)*10+300_000
		}
	}
}
