// Command h5bench runs the h5bench-like parallel I/O kernel, optionally
// under the DaYu Data Semantic Mapper, and reports wall time, tracer
// overhead and trace storage. The per-component breakdown is Figure 10:
// dayu-repro fig10a fig10b.
//
// Usage:
//
//	h5bench [-procs n] [-size bytes] [-iosize bytes] [-mode both|vfd|vol|off]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dayu/internal/tracer"
	"dayu/internal/units"
	"dayu/internal/workloads"
)

func main() {
	procs := flag.Int("procs", 4, "simulated process count")
	size := flag.Int64("size", 16<<20, "bytes per process")
	ioSize := flag.Int64("iosize", 256<<10, "per-operation transfer size")
	mode := flag.String("mode", "both", "tracer mode: both, vfd, vol, off")
	corner := flag.Bool("corner", false, "run the corner-case benchmark instead")
	readOps := flag.Int("readops", 4000, "corner-case dataset read operations")
	flag.Parse()

	var cfg tracer.Config
	switch *mode {
	case "both":
	case "vfd":
		cfg.DisableVOL = true
	case "vol":
		cfg.DisableVFD = true
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "h5bench: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	if *corner {
		ccfg := workloads.CornerCaseConfig{ReadOps: *readOps}
		base, _, err := workloads.RunCornerCase(ccfg, nil)
		if err != nil {
			fatal(err)
		}
		if *mode == "off" {
			fmt.Printf("corner-case untraced: %s\n", units.Duration(base))
			return
		}
		traced, tt, err := workloads.RunCornerCase(ccfg, tracer.New(cfg))
		if err != nil {
			fatal(err)
		}
		sz, _ := tt.EncodedSize()
		report(base, traced, sz)
		return
	}

	hcfg := workloads.H5benchConfig{Procs: *procs, BytesPerProc: *size, IOSize: *ioSize}
	base, _, err := workloads.RunH5bench(hcfg, nil)
	if err != nil {
		fatal(err)
	}
	if *mode == "off" {
		fmt.Printf("h5bench untraced: %s (%d procs x %s)\n",
			units.Duration(base), *procs, units.Bytes(*size))
		return
	}
	traced, traces, err := workloads.RunH5bench(hcfg, tracer.New(cfg))
	if err != nil {
		fatal(err)
	}
	var traceBytes int64
	for _, tt := range traces {
		if n, err := tt.EncodedSize(); err == nil {
			traceBytes += n
		}
	}
	report(base, traced, traceBytes)
}

func report(base, traced time.Duration, traceBytes int64) {
	overhead := 0.0
	if traced > base && base > 0 {
		overhead = 100 * float64(traced-base) / float64(base)
	}
	fmt.Printf("untraced: %s  traced: %s  overhead: %.3f%%\n",
		units.Duration(base), units.Duration(traced), overhead)
	fmt.Printf("trace storage: %s\n", units.Bytes(traceBytes))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "h5bench:", err)
	os.Exit(1)
}
