package workloads

import (
	"fmt"

	"dayu/internal/trace"
)

// SyntheticTraceConfig sizes the synthetic trace set the repository
// benchmark and the equivalence tests run over: a deterministic
// workflow with thousands of tasks, stage-shared input files (data
// reuse), per-task outputs with multiple datasets and address regions,
// and unattributed metadata traffic — the shape that makes the Workflow
// Analyzer's graph builders sweat.
type SyntheticTraceConfig struct {
	// Tasks is the total task count (default 3000).
	Tasks int
	// Stages divides the tasks into pipeline stages; tasks of stage s
	// read the shared files stage s-1 wrote (default 10).
	Stages int
	// FilesPerStage is the shared file count per stage (default 16).
	FilesPerStage int
	// DatasetsPerTask is how many datasets each task writes to its own
	// output file (default 4).
	DatasetsPerTask int
}

func (c SyntheticTraceConfig) withDefaults() SyntheticTraceConfig {
	if c.Tasks == 0 {
		c.Tasks = 3000
	}
	if c.Stages == 0 {
		c.Stages = 10
	}
	if c.FilesPerStage == 0 {
		c.FilesPerStage = 16
	}
	if c.DatasetsPerTask == 0 {
		c.DatasetsPerTask = 4
	}
	return c
}

// GenerateSyntheticTraces builds the deterministic trace set and its
// manifest. The same config always produces byte-identical traces, so
// serial and parallel analyzer runs over it are directly comparable.
func GenerateSyntheticTraces(cfg SyntheticTraceConfig) ([]*trace.TaskTrace, *trace.Manifest) {
	cfg = cfg.withDefaults()
	m := &trace.Manifest{Workflow: "synthetic-analyzer", Stages: map[string][]string{}}
	traces := make([]*trace.TaskTrace, 0, cfg.Tasks)
	perStage := (cfg.Tasks + cfg.Stages - 1) / cfg.Stages
	for i := 0; i < cfg.Tasks; i++ {
		stage := i / perStage
		name := fmt.Sprintf("s%02d/task_%05d", stage, i)
		stageName := fmt.Sprintf("stage_%02d", stage)
		m.TaskOrder = append(m.TaskOrder, name)
		if len(m.Stages[stageName]) == 0 {
			m.StageOrder = append(m.StageOrder, stageName)
		}
		m.Stages[stageName] = append(m.Stages[stageName], name)

		base := int64(i) * 10_000
		in := fmt.Sprintf("stage_%02d/shared_%03d.h5", maxInt(stage-1, 0), i%cfg.FilesPerStage)
		out := fmt.Sprintf("stage_%02d/out_%05d.h5", stage, i)
		tt := &trace.TaskTrace{
			Task: name, StartNS: base, EndNS: base + 9000,
			Files: []trace.FileRecord{
				{Task: name, File: in, OpenNS: base + 100, CloseNS: base + 4000,
					Ops: 40, Reads: 40, BytesRead: 4 << 20,
					MetaOps: 8, DataOps: 32, MetaBytes: 2048, DataBytes: 4<<20 - 2048,
					Regions: []trace.Extent{{Start: 0, End: 4 << 20}}},
				{Task: name, File: out, OpenNS: base + 4000, CloseNS: base + 8800,
					Ops: 24, Writes: 24, BytesWritten: 2 << 20,
					MetaOps: 4, DataOps: 20, MetaBytes: 1024, DataBytes: 2<<20 - 1024,
					Regions: []trace.Extent{{Start: 0, End: 2 << 20}}},
			},
		}
		tt.Objects = append(tt.Objects, trace.ObjectRecord{
			Task: name, File: in, Object: "/input", Type: "dataset",
			Datatype: "float64", Layout: "contiguous", Shape: []int64{512, 1024},
			ElemSize: 8, AcquiredNS: base + 110, ReleasedNS: base + 3900,
			Reads: 40, BytesRead: 4 << 20,
		})
		tt.Mapped = append(tt.Mapped, trace.MappedStat{
			Task: name, File: in, Object: "/input",
			MetaOps: 8, DataOps: 32, MetaBytes: 2048, DataBytes: 4<<20 - 2048,
			Reads: 40, Regions: []trace.Extent{{Start: 4096, End: 4096 + 4<<20}},
			FirstNS: base + 120, LastNS: base + 3800,
		})
		for d := 0; d < cfg.DatasetsPerTask; d++ {
			obj := fmt.Sprintf("/out/var_%02d", d)
			off := int64(d) * (1 << 19)
			tt.Objects = append(tt.Objects, trace.ObjectRecord{
				Task: name, File: out, Object: obj, Type: "dataset",
				Datatype: "float32", Layout: "chunked", Shape: []int64{256, 512},
				ElemSize: 4, ChunkDims: []int64{64, 64},
				AcquiredNS: base + 4100 + int64(d), ReleasedNS: base + 8700,
				Writes: 5, BytesWritten: 1 << 19,
			})
			tt.Mapped = append(tt.Mapped, trace.MappedStat{
				Task: name, File: out, Object: obj,
				MetaOps: 1, DataOps: 5, MetaBytes: 256, DataBytes: 1<<19 - 256,
				Writes: 6, Regions: []trace.Extent{
					{Start: off, End: off + 1<<18},
					{Start: off + 1<<18, End: off + 1<<19},
				},
				FirstNS: base + 4200 + int64(d)*100, LastNS: base + 8600,
			})
		}
		// Unattributed superblock traffic (File-Metadata pseudo-dataset).
		tt.Mapped = append(tt.Mapped, trace.MappedStat{
			Task: name, File: out, Object: "",
			MetaOps: 4, MetaBytes: 1024, Writes: 4,
			Regions: []trace.Extent{{Start: 0, End: 2048}},
			FirstNS: base + 4010, LastNS: base + 8790,
		})
		traces = append(traces, tt)
	}
	return traces, m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
