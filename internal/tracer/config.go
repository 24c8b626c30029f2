// Package tracer implements DaYu's Data Semantic Mapper (paper §IV):
// an Input Parser for user configuration, an Access Tracker with a
// VOL-level profiler (Table I semantics) and a VFD-level profiler
// (Table II semantics), and a Characteristic Mapper that joins
// object-level accesses to low-level I/O operations through the
// semantics mailbox. The tracer keeps no clocks of its own: the
// overhead breakdown of Figure 10 comes from MeasureBreakdown, which
// replays a recorded event and op stream through each component alone.
package tracer

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Config is the user-provided tracer configuration the Input Parser
// reads (paper: statistics location, page size, ops to skip, I/O
// tracing on/off).
type Config struct {
	// OutDir is where task traces are written (empty: caller handles
	// persistence).
	OutDir string `json:"out_dir,omitempty"`
	// PageSize is the address-region page size the Workflow Analyzer
	// will use; it is carried through for the CLI. Default 4096.
	PageSize int64 `json:"page_size,omitempty"`
	// SkipOps drops the first N raw I/O records from the time-sensitive
	// I/O trace, reducing storage for steady-state analysis.
	SkipOps int64 `json:"skip_ops,omitempty"`
	// IOTrace enables time-sensitive raw I/O tracing. It is the
	// storage-overhead knob of Figure 9d: without it trace storage is
	// constant in the number of operations.
	IOTrace bool `json:"io_trace,omitempty"`
	// DisableVOL turns off the object-level profiler.
	DisableVOL bool `json:"disable_vol,omitempty"`
	// DisableVFD turns off the file-level profiler.
	DisableVFD bool `json:"disable_vfd,omitempty"`
	// Now supplies wall-clock timestamps; defaults to time.Now.
	Now func() time.Time `json:"-"`
	// Sink, when non-nil, receives streamed task records: cumulative
	// mid-task checkpoints every CheckpointOps observed file
	// operations, and — emitted by the workflow engine once attempt
	// and failure accounting is final — the completed trace.
	// Implementations must be safe for concurrent use, because parallel
	// stages share one Sink across their per-task tracers, and must not
	// block on delivery (see Sink).
	Sink Sink `json:"-"`
	// CheckpointOps is the file-operation period between streamed
	// checkpoints; 0 disables mid-task checkpoints (finals still
	// stream when Sink is set). LoadConfig rejects a negative period.
	CheckpointOps int64 `json:"checkpoint_ops,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// LoadConfig reads a JSON configuration file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("tracer: read config: %w", err)
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("tracer: parse config %s: %w", path, err)
	}
	if c.PageSize < 0 || c.SkipOps < 0 || c.CheckpointOps < 0 {
		return Config{}, fmt.Errorf("tracer: config %s has negative values", path)
	}
	return c, nil
}
