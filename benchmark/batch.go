package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dayu/internal/analyzer"
	"dayu/internal/diagnose"
	"dayu/internal/graph"
	"dayu/internal/trace"
)

func batchTasks(quick bool) int {
	if quick {
		return 200
	}
	return 3000
}

// passOutput is what one offline pass produced.
type passOutput struct {
	ftgJSON  []byte
	sdgDOT   string
	findings []diagnose.Finding
	nodes    int
	edges    int
}

// digest reduces a pass's outputs to a hash, outside the timed pass.
func (o passOutput) digest() ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	findingsJSON, err := diagnose.EncodeJSON(o.findings)
	if err != nil {
		return sum, err
	}
	h := sha256.New()
	h.Write(o.ftgJSON)
	h.Write([]byte(o.sdgDOT))
	h.Write(findingsJSON)
	h.Sum(sum[:0])
	return sum, nil
}

// analyzePass is what an analyst waits for on a finished trace
// directory: load, both graph builds, diagnostics, and the renders
// `dayu analyze` writes (FTG as indented JSON, SDG as DOT).
// parallelism 0 is the default (GOMAXPROCS); 1 forces the analyzer's
// serial path, the single-threaded baseline of the same job.
func analyzePass(dir string, parallelism int, rec *recorder, id string) (passOutput, error) {
	var out passOutput
	root := rec.begin("pass", -1, id)
	defer rec.end(root)
	suffix := ""
	if parallelism == 1 {
		suffix = ".serial"
	}
	stage := func(name string, fn func()) {
		sp := rec.begin(name+suffix, root, id)
		fn()
		rec.end(sp)
	}
	var traces []*trace.TaskTrace
	var manifest *trace.Manifest
	var err error
	stage("trace.load", func() {
		if traces, err = trace.LoadDir(dir); err == nil {
			manifest, err = trace.LoadManifest(dir)
		}
	})
	if err != nil {
		return out, err
	}
	opts := analyzer.Options{Parallelism: parallelism}
	var ftg, sdg *graph.Graph
	stage("analyzer.ftg", func() { ftg = analyzer.BuildFTGOpts(traces, manifest, opts) })
	stage("analyzer.sdg", func() { sdg = analyzer.BuildSDG(traces, manifest, opts) })
	stage("diagnose.analyze", func() { out.findings = diagnose.Analyze(traces, manifest, diagnose.Thresholds{}) })
	stage("graph.render_json", func() { out.ftgJSON, err = json.MarshalIndent(ftg, "", " ") })
	if err != nil {
		return out, err
	}
	stage("graph.render_dot", func() { out.sdgDOT = sdg.DOT() })
	out.nodes, out.edges = ftg.NumNodes()+sdg.NumNodes(), ftg.NumEdges()+sdg.NumEdges()
	return out, nil
}

// runBatch measures the offline path with no server: interleaved pairs
// of the default pass and its Parallelism-1 baseline over a synthetic
// trace directory.
func runBatch(c config, rec *recorder) (*result, error) {
	res := newResult()
	dir := filepath.Join(c.scratch, "batch-traces")
	// ref is the first pass's output, which every later pass must equal.
	var ref struct {
		set                    bool
		digest                 [sha256.Size]byte
		nodes, edges, findings int
	}

	onePass := func(it iter, parallelism int, label string) (time.Duration, uint64, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := analyzePass(dir, parallelism, it.rec, it.id(label))
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		digest, err := out.digest()
		if err != nil {
			return 0, 0, err
		}
		if !ref.set {
			ref.set, ref.digest = true, digest
			ref.nodes, ref.edges, ref.findings = out.nodes, out.edges, len(out.findings)
		}
		res.check(digest == ref.digest, "%s pass %d rendered different bytes than the first pass", label, it.i)
		return wall, m1.TotalAlloc - m0.TotalAlloc, nil
	}
	onePair := func(it iter) error {
		var wall, serial time.Duration
		var alloc uint64
		err := pair(it.swap,
			func() (err error) { wall, alloc, err = onePass(it, 0, "pass"); return },
			func() (err error) { serial, _, err = onePass(it, 1, "serial"); return })
		if err != nil {
			return err
		}
		res.add(it, "wait_p50_ms", ms(wall))
		res.add(it, "vs_baseline_x", float64(wall)/float64(serial))
		res.add(it, "alloc_mb", float64(alloc)/1e6)
		return nil
	}

	var files []traceFile
	for s := 0; s < setupTimes; s++ {
		t0 := time.Now()
		_, manifest, fs, err := syntheticInputs(c.seed, batchTasks(c.quick))
		if err != nil {
			return nil, err
		}
		files = fs
		if err := writeTraceDir(dir, files, manifest); err != nil {
			return nil, err
		}
		ref.set = false
		if err := onePair(iter{i: -1, warm: true}); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		runtime.GC()
	}
	if err := repeat(c, rec, 3, onePair); err != nil {
		return nil, err
	}
	if rec != nil {
		res.layer["graph.nodes"], res.layer["graph.edges"], res.layer["diagnose.findings"] = float64(ref.nodes), float64(ref.edges), float64(ref.findings)
		if err := batchLayerMetrics(res, rec, files); err != nil {
			return nil, err
		}
	}
	return res, os.RemoveAll(dir)
}

// batchLayerMetrics reduces the passes' spans to per-layer medians and
// times the codec as a decoder over the same tasks in both
// serializations.
func batchLayerMetrics(res *result, rec *recorder, files []traceFile) error {
	L, d, self := res.layer, rec.durationsMS(), rec.selfMS()
	for metric, spanName := range map[string]string{
		"trace.load_ms": "trace.load", "analyzer.ftg_ms": "analyzer.ftg", "analyzer.sdg_ms": "analyzer.sdg",
		"analyzer.sdg_serial_ms": "analyzer.sdg.serial", "diagnose.analyze_ms": "diagnose.analyze",
		"graph.render_json_ms": "graph.render_json", "graph.render_dot_ms": "graph.render_dot",
	} {
		L[metric] = median(d[spanName])
	}

	// Self times of the stages against the whole pass: what is left is
	// the pass span's own self time (glue between the calls).
	if pass := median(d["pass"]); pass > 0 {
		L["bench.accounted_share"] = (pass - median(self["pass"])) / pass
	}

	jsonBytes := make([][]byte, len(files))
	for i, f := range files {
		tt, err := trace.DecodeBytes(f.data)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := tt.EncodeFormat(&buf, trace.FormatJSON); err != nil {
			return err
		}
		jsonBytes[i] = buf.Bytes()
	}
	decodeAll := func(get func(int) []byte) (float64, error) {
		var rounds []float64
		for round := 0; round < 5; round++ {
			runtime.GC()
			t0 := time.Now()
			for i := range files {
				if _, err := trace.DecodeBytes(get(i)); err != nil {
					return 0, err
				}
			}
			rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(files)))
		}
		return median(rounds), nil
	}
	var err error
	if L["codec.decode_us_per_task"], err = decodeAll(func(i int) []byte { return files[i].data }); err != nil {
		return err
	}
	L["codec.json_decode_us_per_task"], err = decodeAll(func(i int) []byte { return jsonBytes[i] })
	return err
}
