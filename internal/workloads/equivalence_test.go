package workloads

import (
	"bytes"
	"encoding/json"
	"testing"

	"dayu/internal/analyzer"
	"dayu/internal/graph"
	"dayu/internal/trace"
)

// renderGraph captures the byte-exact outputs the parallel builders
// promise to keep identical to the serial build.
func renderGraph(t *testing.T, g *graph.Graph) (dot, js string) {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return g.DOT(), string(data)
}

// roundTrip pushes every trace through one wire format and back.
func roundTrip(t *testing.T, traces []*trace.TaskTrace, f trace.Format) []*trace.TaskTrace {
	t.Helper()
	out := make([]*trace.TaskTrace, len(traces))
	for i, tt := range traces {
		var buf bytes.Buffer
		if err := tt.EncodeFormat(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := trace.DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = got
	}
	return out
}

// TestReplicaSerialParallelEquivalence is the golden gate for the
// parallel analyzer over the three paper workflow replicas: building
// the FTG and SDG with Parallelism 1 and Parallelism 8 must emit
// byte-identical DOT and JSON. The synthetic-dtb row also crosses wire
// formats, so the trace codec cannot leak into graph bytes either.
func TestReplicaSerialParallelEquivalence(t *testing.T) {
	type replica struct {
		traces   []*trace.TaskTrace
		manifest *trace.Manifest
		// reference, when set, is what the serial build reads instead
		// of traces.
		reference []*trace.TaskTrace
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) replica
	}{
		{"pyflextrkr", func(t *testing.T) replica {
			spec, setup := PyFlextrkr(PyFlextrkrConfig{ParallelTasks: 2, InputFiles: 2,
				FeatureBytes: 8 << 10, Stage9Datasets: 20, Stage9Accesses: 4})
			res := runWorkload(t, spec, setup)
			return replica{traces: res.Traces, manifest: res.Manifest}
		}},
		{"ddmd", func(t *testing.T) replica {
			spec, setup := DDMD(DDMDConfig{SimTasks: 4, ContactMapBytes: 32 << 10,
				SmallBytes: 4 << 10, Epochs: 10})
			res := runWorkload(t, spec, setup)
			return replica{traces: res.Traces, manifest: res.Manifest}
		}},
		{"arldm", func(t *testing.T) replica {
			spec, setup := ARLDM(ARLDMConfig{Stories: 24, ImageBytes: 8 << 10})
			res := runWorkload(t, spec, setup)
			return replica{traces: res.Traces, manifest: res.Manifest}
		}},
		{"synthetic-dtb", func(t *testing.T) replica {
			traces, m := GenerateSyntheticTraces(quickSynthetic)
			return replica{
				traces:    roundTrip(t, traces, trace.FormatBinary),
				manifest:  m,
				reference: roundTrip(t, traces, trace.FormatJSON),
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.build(t)
			if len(r.traces) == 0 {
				t.Fatal("replica produced no traces")
			}
			serial := r.reference
			if serial == nil {
				serial = r.traces
			}
			serialFTG := analyzer.BuildFTGOpts(serial, r.manifest, analyzer.Options{Parallelism: 1})
			parallelFTG := analyzer.BuildFTGOpts(r.traces, r.manifest, analyzer.Options{Parallelism: 8})
			wantDOT, wantJSON := renderGraph(t, serialFTG)
			gotDOT, gotJSON := renderGraph(t, parallelFTG)
			if gotDOT != wantDOT {
				t.Error("ftg: parallel DOT differs from serial")
			}
			if gotJSON != wantJSON {
				t.Error("ftg: parallel JSON differs from serial")
			}

			serialSDG := analyzer.BuildSDG(serial, r.manifest, analyzer.Options{
				Parallelism: 1, IncludeRegions: true, IncludeFileMetadata: true})
			parallelSDG := analyzer.BuildSDG(r.traces, r.manifest, analyzer.Options{
				Parallelism: 8, IncludeRegions: true, IncludeFileMetadata: true})
			wantDOT, wantJSON = renderGraph(t, serialSDG)
			gotDOT, gotJSON = renderGraph(t, parallelSDG)
			if gotDOT != wantDOT {
				t.Error("sdg: parallel DOT differs from serial")
			}
			if gotJSON != wantJSON {
				t.Error("sdg: parallel JSON differs from serial")
			}
		})
	}
}
