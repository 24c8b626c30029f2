package diagnose

import (
	"fmt"
	"strconv"
	"strings"

	"dayu/internal/trace"
	"dayu/internal/units"
)

// The rules, one function per scope. Each reads the scope's links and
// the cached facts of the scopes it depends on, replaces the scope's
// groups (a published group is never written again), and marks dirty the
// scopes that read a fact it changed. Index.patch runs them in
// dependency order: objects, files, tasks, pairs, stages.

// objectRules settles which description of the object wins and how big
// the object is, and applies the §III-A layout guidelines to it:
// chunked small data and contiguous large VL data are both mismatches.
func (ix *Index) objectRules(o *objScope) {
	o.dirty = false
	if len(o.stats) == 0 && len(o.descs) == 0 {
		o.dead = true
		delete(ix.objs, o.objKey)
		o.file.nObjs--
		return
	}
	ix.recomputed++

	// The first description seen in task order stands unless it lacks a
	// datatype, in which case the next one replaces it.
	var d *trace.ObjectRecord
	for _, desc := range o.descs {
		if d != nil && d.Datatype != "" {
			break
		}
		d = desc.rec
	}
	described, descSize := false, int64(0)
	if d != nil && len(d.Shape) > 0 && d.ElemSize > 0 {
		described, descSize = true, d.ElemSize
		for _, s := range d.Shape {
			descSize *= s
		}
	}
	if described != o.described || descSize != o.descSize {
		o.described, o.descSize = described, descSize
		for _, s := range o.stats {
			ix.touchTask(s.task) // metadata-only-access quotes the size
		}
	}
	o.maxData, o.sumData = 0, 0
	for _, s := range o.stats {
		o.maxData = max(o.maxData, s.stat.DataBytes)
		o.sumData += s.stat.DataBytes
	}

	o.out = [numObjSlots]*group{}
	if d == nil || d.Type != "dataset" {
		return
	}
	switch size := o.size(); {
	case d.Layout == "chunked" && d.Datatype != "vlen" && size > 0 && size < ix.th.ChunkedSmallBytes:
		o.out[oChunkedSmall] = oneFinding(Finding{
			Kind: ChunkedSmallData, Severity: Warning, Guideline: GuidelineLayout,
			File: o.file.name, Object: o.name,
			Detail:  "chunked layout on a " + units.Bytes(size) + " dataset adds index overhead; use contiguous layout",
			Metrics: map[string]float64{"bytes": float64(size)},
		})
	case d.Layout == "contiguous" && d.Datatype == "vlen":
		// Observed payload volume: the description's own counters, else
		// what the tasks' mapped stats add up to.
		volume := d.BytesWritten + d.BytesRead
		if volume <= 0 {
			volume = o.sumData
		}
		if volume > ix.th.VLenLargeBytes {
			o.out[oVLenContiguous] = oneFinding(Finding{
				Kind: VLenContiguous, Severity: Warning, Guideline: GuidelineLayout,
				File: o.file.name, Object: o.name,
				Detail:  "large variable-length dataset in contiguous layout; chunked layout provides the index metadata VL access needs",
				Metrics: map[string]float64{"bytes": float64(volume)},
			})
		}
	}
}

// size estimates the dataset's content size from its description,
// falling back to the most data bytes any task moved.
func (o *objScope) size() int64 {
	if o.described {
		return o.descSize
	}
	return o.maxData
}

// fileRules derives the file's readers and writers and runs the
// file-level rules: data-reuse (consumed by two or more tasks),
// disposable-data (non-critical once consumed, Figure 4 blue marks),
// time-dependent-input (a pure input first needed after the workflow
// has started, Figure 4 circle 2) and data-scattering (many small
// datasets, Figure 5).
func (ix *Index) fileRules(f *fileScope) {
	f.dirty = false
	if len(f.users) == 0 && f.nObjs == 0 {
		f.dead = true
		delete(ix.files, f.name)
		return
	}
	ix.recomputed++
	f.objOrder = mergeSorted(f.objOrder, f.objAdded,
		func(o *objScope) bool { return o.dead },
		func(a, b *objScope) int { return strings.Compare(a.name, b.name) })
	f.objAdded = f.objAdded[:0]

	readers, writers := 0, 0
	var firstReader, firstWriter *taskScope
	for _, u := range f.users {
		if u.reads {
			if readers++; firstReader == nil {
				firstReader = u.task
			}
		}
		if u.writes {
			if writers++; firstWriter == nil {
				firstWriter = u.task
			}
		}
	}
	if firstWriter != f.firstWriter {
		f.firstWriter = firstWriter
		for _, u := range f.users {
			if u.readsAndWrites {
				ix.touchTask(u.task) // "written upstream" may have flipped
			}
		}
	}
	if f.writersChanged {
		f.writersChanged = false
		for _, u := range f.users {
			for _, st := range ix.stagesOf[u.task.trace.Task] {
				if len(st.tasks) == 1 {
					ix.touchStage(st) // fan-in counts the producers
				}
			}
		}
	}
	f.firstReader, f.pure = firstReader, writers == 0

	f.out = [numFileSlots]*group{}
	if readers >= 2 {
		f.out[fReuse] = oneFinding(Finding{
			Kind: DataReuse, Severity: Warning, Guideline: GuidelineCaching,
			File:    f.name,
			Detail:  "file is read by " + strconv.Itoa(readers) + " tasks; prioritize it in the fastest tier",
			Metrics: map[string]float64{"readers": float64(readers)},
		})
	}

	var disposable string
	switch {
	case writers == 0 && readers == 1:
		disposable = "initial input consumed by a single task; stage it out after processing"
	case writers > 0 && readers == 1:
		disposable = "output with a single outgoing consumer; offload to slower storage after use"
	case writers > 0 && readers == 0:
		disposable = "output never read back within the workflow; drain it to capacity storage"
	}
	if disposable != "" {
		f.out[fDisposable] = oneFinding(Finding{
			Kind: DisposableData, Severity: Info, Guideline: GuidelineStageOut,
			File: f.name, Detail: disposable,
		})
	}

	if f.pure && firstReader != nil && len(ix.tasks) >= 3 {
		// With a manifest, "mid-workflow" means a later *stage*, so the
		// parallel tasks of the first stage never flag their own inputs.
		first, name := firstReader.pos, firstReader.trace.Task
		position := first
		if rank, staged := ix.stageRank[name]; staged {
			position = rank
		}
		if position > 0 { // not needed by the first task(s)/stage
			f.out[fTimeDependent] = oneFinding(Finding{
				Kind: TimeDependentInput, Severity: Info, Guideline: GuidelinePrefetch,
				File: f.name, Task: name,
				Detail: fmt.Sprintf("input first read by task #%d (%s); delay its prefetch until just before that task",
					first+1, name),
				Metrics: map[string]float64{"first_reader_index": float64(first)},
			})
		}
	}

	small, total := 0, 0
	for _, o := range f.objOrder {
		if o.name == "" || len(o.stats) == 0 {
			continue
		}
		total++
		if size := o.size(); size > 0 && size < ix.th.SmallDatasetBytes {
			small++
		}
	}
	if small >= ix.th.ScatterMinDatasets {
		f.out[fScatter] = oneFinding(Finding{
			Kind: DataScattering, Severity: Critical, Guideline: GuidelineLayout,
			File: f.name,
			Detail: fmt.Sprintf("%d of %d datasets are smaller than %s; consolidate them into one large dataset and index by offset",
				small, total, units.Bytes(ix.th.SmallDatasetBytes)),
			Metrics: map[string]float64{
				"small_datasets": float64(small),
				"total_datasets": float64(total),
			},
		})
	}
}

// taskRules runs the per-task rules that read other scopes, whenever
// the task is dirty: write-after-read / read-after-write (does the file
// have an earlier writer) and metadata-only-access (how big is the
// object). The rest of a task's rules are ownRecordRules.
func (ix *Index) taskRules(t *taskScope) {
	t.dirty = false
	ix.recomputed++
	task := t.trace.Task

	// A task that reads and writes one file's content either updates a
	// file produced upstream or re-reads its own output. Metadata
	// side-effects (symbol-table reads during creation) count as neither.
	var war, raw []Finding
	for _, tf := range t.files {
		if tf.rec.DataReads == 0 || tf.rec.DataWrites == 0 {
			continue
		}
		if w := tf.file.firstWriter; w != nil && w.pos < t.pos {
			war = append(war, Finding{
				Kind: WriteAfterRead, Severity: Warning, Guideline: GuidelineCaching,
				Task: task, File: tf.file.name,
				Detail: "task reads upstream output and writes it back; cache it in memory for the task duration",
			})
		} else {
			raw = append(raw, Finding{
				Kind: ReadAfterWrite, Severity: Info, Guideline: GuidelineCaching,
				Task: task, File: tf.file.name,
				Detail: "task re-reads its own output; keep it memory-resident",
			})
		}
	}
	t.out[tWriteAfterRead], t.out[tReadAfterWrite] = groupOf(war), groupOf(raw)

	// Accesses that touch a dataset's metadata but none of its content
	// (Figure 7: training reads only contact_map's metadata): data
	// movement that partial access could avoid.
	var metaOnly []Finding
	for _, m := range t.metaOnly {
		size := int64(0)
		if m.obj.described {
			size = m.obj.descSize
		}
		metaOnly = append(metaOnly, Finding{
			Kind: MetadataOnlyAccess, Severity: Warning, Guideline: GuidelinePartial,
			Task: task, File: m.stat.File, Object: m.stat.Object,
			Detail: fmt.Sprintf("task reads only metadata of %s (%s of content untouched); skip staging its data",
				m.stat.Object, units.Bytes(size)),
			Metrics: map[string]float64{"content_bytes": float64(size)},
		})
	}
	t.out[tMetaOnly] = groupOf(metaOnly)
}

// ownRecordRules runs the rules nothing but the task's own file records
// feed, in file-name order — small-io-requests, metadata-overhead,
// read-only-sequential — once, when the (immutable) trace is linked.
func (ix *Index) ownRecordRules(t *taskScope) {
	task := t.trace.Task
	var smallIO, metaOverhead, sequential []Finding
	for _, tf := range t.files {
		fr, file := tf.rec, tf.file.name
		// File traffic dominated by tiny raw-data operations: the
		// "excessive small I/O requests" Figure 5 calls out.
		if fr.DataOps >= ix.th.SmallAccessMinOps {
			if avg := fr.DataBytes / fr.DataOps; avg < ix.th.SmallAccessBytes {
				smallIO = append(smallIO, Finding{
					Kind: SmallIORequests, Severity: Warning, Guideline: GuidelineLayout,
					Task: task, File: file,
					Detail: fmt.Sprintf("%d raw-data ops average only %s each; batch or consolidate accesses",
						fr.DataOps, units.Bytes(avg)),
					Metrics: map[string]float64{"avg_access_bytes": float64(avg), "data_ops": float64(fr.DataOps)},
				})
			}
		}
		if fr.DataOps == 0 {
			continue
		}
		if ratio := float64(fr.MetaOps) / float64(fr.DataOps); fr.MetaOps != 0 && ratio > ix.th.MetaOpsRatio {
			metaOverhead = append(metaOverhead, Finding{
				Kind: MetadataOverhead, Severity: Warning, Guideline: GuidelineLayout,
				Task: task, File: file,
				Detail: fmt.Sprintf("metadata ops outnumber data ops %.1f:1 (%d vs %d); revisit the storage layout",
					ratio, fr.MetaOps, fr.DataOps),
				Metrics: map[string]float64{"meta_ops_ratio": ratio},
			})
		}
		// Read-only streaming consumers: the rolling stage-in candidates
		// of §VI-B.
		if fr.Writes > 0 || fr.Reads == 0 {
			continue
		}
		if ratio := float64(fr.SequentialOps) / float64(fr.DataOps); ratio >= ix.th.SequentialRatio {
			sequential = append(sequential, Finding{
				Kind: ReadOnlySequential, Severity: Info, Guideline: GuidelinePrefetch,
				Task: task, File: file,
				Detail: fmt.Sprintf("read-only sequential access (%.0f%% sequential); use a rolling stage-in to the local tier",
					100*ratio),
				Metrics: map[string]float64{"sequential_ratio": ratio},
			})
		}
	}
	t.out[tSmallIO], t.out[tMetaOverhead], t.out[tSequential] = groupOf(smallIO), groupOf(metaOverhead), groupOf(sequential)
}

// pairRule flags a task that reads nothing its predecessor in task
// order wrote: consecutive tasks without a shared file are candidates
// for parallel execution (Figure 6 circle 3: training and inference).
func (ix *Index) pairRule(t, prev *taskScope) {
	t.pairPrev, t.out[tPair] = prev, nil
	if prev == nil {
		return
	}
	ix.recomputed++
	if len(prev.files) == 0 || len(t.files) == 0 {
		return
	}
	// Both lists are sorted by file name.
	for i, j := 0, 0; i < len(prev.files) && j < len(t.files); {
		a, b := prev.files[i], t.files[j]
		switch c := strings.Compare(a.file.name, b.file.name); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			if a.rec.Writes > 0 && b.rec.Reads > 0 {
				return // t depends on prev
			}
			i, j = i+1, j+1
		}
	}
	detail := append(make([]byte, 0, 128), "no data dependency between "...)
	detail = strconv.AppendQuote(detail, prev.trace.Task)
	detail = append(detail, " and "...)
	detail = strconv.AppendQuote(detail, t.trace.Task)
	detail = append(detail, "; they can execute in parallel"...)
	t.out[tPair] = oneFinding(Finding{
		Kind: NoDataDependency, Severity: Warning, Guideline: GuidelineParallelize,
		Task: t.trace.Task, Detail: string(detail),
	})
}

// stageRules recognizes the stage-level patterns §VII-C1 uses for
// co-scheduling: all-to-all (every task of a stage reads every input)
// and fan-in (one task consumes many upstream outputs).
func (ix *Index) stageRules(st *stageScope) {
	st.dirty = false
	ix.recomputed++
	st.out = [numStageSlots]*group{}

	// Files each stage task reads content of. The metadata reads that
	// accompany file creation do not make the creating task a consumer.
	union := map[*fileScope]struct{}{}
	reads := func(task string) (n int) {
		if t := ix.byName[task]; t != nil {
			for _, tf := range t.files {
				if tf.rec.DataReads > 0 {
					union[tf.file] = struct{}{}
					n++
				}
			}
		}
		return n
	}
	perTask := make([]int, len(st.tasks))
	for i, task := range st.tasks {
		perTask[i] = reads(task)
	}
	if len(union) == 0 {
		return
	}
	if len(st.tasks) >= 2 {
		for _, n := range perTask {
			if n != len(union) {
				return
			}
		}
		if len(union) >= 2 {
			st.out[sAllToAll] = oneFinding(Finding{
				Kind: AllToAllPattern, Severity: Info, Guideline: GuidelineCoSchedule,
				Task: st.name,
				Detail: fmt.Sprintf("all %d tasks of stage %q read all %d input files; parallelizable with shared staging",
					len(st.tasks), st.name, len(union)),
			})
		}
		return
	}
	if len(union) < 3 {
		return
	}
	t := ix.byName[st.tasks[0]]
	producers := map[string]struct{}{}
	for f := range union {
		for _, u := range f.users {
			if u.writes && u.task.pos < t.pos {
				producers[u.task.trace.Task] = struct{}{}
			}
		}
	}
	if len(producers) >= 2 {
		st.out[sFanIn] = oneFinding(Finding{
			Kind: FanInPattern, Severity: Info, Guideline: GuidelineCoSchedule,
			Task: t.trace.Task,
			Detail: fmt.Sprintf("task %q fans in %d files from %d producers; co-schedule it with the producing node",
				t.trace.Task, len(union), len(producers)),
		})
	}
}
