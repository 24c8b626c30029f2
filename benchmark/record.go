package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// environment is recorded with every run: numbers from a 1-core box or
// a loaded host must be recognisable as such later.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	LoadAvg    float64 `json:"loadavg_start"`
	Time       string  `json:"time"`
}

func captureEnv() environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, LoadAvg: loadAverage(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// runRecord is one run in the result file.
type runRecord struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Quick    bool        `json:"quick,omitempty"`
	Env      environment `json:"env"`

	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	Notes       []string `json:"notes,omitempty"`

	// EndToEnd are the declared metrics (tracing-off repetitions);
	// Series summarises every per-repetition series, including the
	// end-to-end ones, with its sample count, median and quartiles.
	EndToEnd map[string]float64 `json:"end_to_end"`
	Series   map[string]summary `json:"series"`
	Setup    summary            `json:"setup_s"`

	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// OffPath lists per-layer metrics this workload does not exercise;
	// their values come from a quick-size pass of their home workload.
	OffPath []string `json:"off_path,omitempty"`
}

func newRunRecord(env environment, c config, res *result, offPath []string) runRecord {
	r := runRecord{
		Workload: c.workload, Seed: c.seed, Seconds: c.budget.Seconds(), Traced: c.traced, Quick: c.quick, Env: env,
		Attempted: res.attempted, Failed: res.failed, Notes: res.notes,
		EndToEnd: endToEndValues(res), Series: map[string]summary{}, Setup: summarize(res.setup),
		OffPath: offPath,
	}
	if res.attempted > 0 {
		r.FailedShare = float64(res.failed) / float64(res.attempted)
	}
	for name, xs := range res.samples {
		r.Series[name] = summarize(xs)
	}
	if c.traced {
		r.PerLayer = res.layer
	}
	return r
}

// resultFile is what -out accumulates and -compare reads.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func loadResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendRun(path string, r runRecord) error {
	f, err := loadResultFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// declaredBounds reads the regression bounds from BENCHMARK.json.
func declaredBounds(path string) (map[string]float64, map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var decl struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds, better := map[string]float64{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	return bounds, better, nil
}

// verdict classifies metric values of a change (b) against its parent
// (a), each one value per run. worse is how far b's median is on the
// bad side of a's, as a share of a's median. The run-to-run spread is
// a's interquartile distance over its median; with a single run per
// side it cannot be known and fallbackSpread (the in-run spread)
// stands in.
func verdict(a, b []float64, lowerIsBetter bool, bound, fallbackSpread float64) (string, float64) {
	sa := summarize(a)
	if sa.Median == 0 {
		return "unresolved", 0
	}
	worse := (median(b) - sa.Median) / sa.Median
	if !lowerIsBetter {
		worse = -worse
	}
	spread := fallbackSpread
	if len(a) >= 4 {
		spread = sa.spread()
	}
	if spread > bound {
		// Noise wider than the bound: only a clean separation counts.
		if allBetter(a, b, lowerIsBetter) {
			return "improved", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > bound:
		return "regressed", worse
	case -worse > spread && allBetter(a, b, lowerIsBetter):
		return "improved", worse
	default:
		return "unchanged", worse
	}
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, lowerIsBetter bool) bool {
	sa, sb := sorted(a), sorted(b)
	if lowerIsBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any regressed beyond its declared bound. Only
// tracing-off, full-size runs are compared.
func compareFiles(w io.Writer, declPath, pathA, pathB string) (regressed bool, err error) {
	bounds, better, err := declaredBounds(declPath)
	if err != nil {
		return false, err
	}
	fa, err := loadResultFile(pathA)
	if err != nil {
		return false, err
	}
	fb, err := loadResultFile(pathB)
	if err != nil {
		return false, err
	}
	type key struct{ workload, metric string }
	collect := func(f resultFile) (map[key][]float64, map[key]float64, map[string]int) {
		vals, spread, failed := map[key][]float64{}, map[key]float64{}, map[string]int{}
		for _, r := range f.Runs {
			if r.Traced || r.Quick {
				continue
			}
			failed[r.Workload] += r.Failed
			for name, v := range r.EndToEnd {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], v)
				s := r.Series[name]
				if name == "setup_s" {
					s = r.Setup
				}
				spread[k] = s.spread()
			}
		}
		return vals, spread, failed
	}
	va, spreadA, failedA := collect(fa)
	vb, _, failedB := collect(fb)
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "verdict")
	for _, wl := range allWorkloads {
		for _, m := range endToEnd {
			k := key{wl.name, m.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				continue
			}
			v, worse := verdict(va[k], vb[k], better[m.Name] != "higher", bounds[m.Name], spreadA[k])
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-16s %12.6g %12.6g %+7.1f%% %5.0f%%  %s (runs %d/%d)\n",
				wl.name, m.Name, median(va[k]), median(vb[k]), 100*worse, 100*bounds[m.Name], v, len(va[k]), len(vb[k]))
		}
		if failedB[wl.name] > failedA[wl.name] {
			regressed = true
			fmt.Fprintf(w, "%-16s %-16s %12d %12d %8s %6s  regressed (any increase counts)\n",
				wl.name, "failed", failedA[wl.name], failedB[wl.name], "", "0")
		}
	}
	return regressed, nil
}
