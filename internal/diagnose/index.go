package diagnose

import (
	"cmp"
	"slices"
	"strings"

	"dayu/internal/trace"
)

// Index is the rule set in its only form: a stateful index over a set
// of task traces that caches each rule's findings under the scope that
// determines them and, when the set changes, recomputes the scopes the
// change touches and nothing else. Analyze is an Index used once;
// `dayu serve` keeps one beside its build cache and syncs it to every
// snapshot's live set, so a folded checkpoint costs what the checkpoint
// changed rather than a pass over the state.
//
// The scopes, and what each one's findings are a function of:
//
//   - task: the task's own file records (small-io-requests,
//     metadata-overhead, read-only-sequential — computed once per trace,
//     traces being immutable), plus two things it reads from other
//     scopes: whether a file it reads and writes has an earlier writer
//     (write-after-read / read-after-write) and the described size of an
//     object it touches only the metadata of (metadata-only-access);
//   - adjacent pair: the file records of a task and its predecessor in
//     task order (no-data-dependency), cached on the later task;
//   - file: its reader and writer tasks (data-reuse, disposable-data,
//     time-dependent-input) and its objects' sizes (data-scattering);
//   - (file, object): every task's mapped stats for the object and the
//     winning description (chunked-small-data, vlen-contiguous);
//   - stage: the manifest's task list and those tasks' file records
//     (all-to-all-pattern), plus for a one-task stage the writers of the
//     files it reads (fan-in-pattern).
//
// Sync finds added, replaced and removed tasks by pointer identity —
// traces and manifests are immutable and pointer-stable — unlinks and
// links them in the inverted indexes (file → tasks in task order,
// (file, object) → stats and descriptions), which marks the scopes they
// touch dirty, and lets a recomputed scope mark its dependents: an
// object whose described size moved dirties the tasks mapping it, a file
// whose first writer moved dirties the tasks that read and write it, a
// file whose writers changed dirties the one-task stages reading it.
// Every "written upstream" test compares two tasks' positions, and the
// relative order of tasks that stay never changes, so an insert or a
// removal invalidates by position only where a finding embeds one: the
// pair of a task whose predecessor changed, and time-dependent-input's
// "task #N" / first_reader_index on the pure inputs whose first reader
// moved. Anything else — a new manifest, retained tasks in a new
// relative order, two tasks under one name — rebuilds from empty, which
// is the same code with every task added.
//
// An Index is not safe for concurrent use; the Views it returns are
// immutable and are.
type Index struct {
	th Thresholds

	manifest  *trace.Manifest
	stageRank map[string]int           // task name → index of its (last) stage in StageOrder
	stages    []*stageScope            // non-empty stages in StageOrder
	stagesOf  map[string][]*stageScope // task name → the stages listing it

	tasks   []*taskScope // task order, as Sync was given it
	byTrace map[*trace.TaskTrace]*taskScope
	byName  map[string]*taskScope // the last task of that name in task order
	// dups: two tasks share a name, which the inverted indexes do not
	// patch (byName is last-wins); every Sync rebuilds until it clears.
	dups bool
	gen  uint64 // stamps the tasks the Sync in progress retains

	files map[string]*fileScope
	objs  map[objKey]*objScope

	// Emission orders: files by name (objects by name inside each) and
	// tasks by name — write-after-read and read-after-write come out
	// sorted by task name, not by position. New members collect in the
	// added lists and are merged in, the dead dropped, once per Sync.
	fileOrder, fileAdded []*fileScope
	nameOrder, nameAdded []*taskScope

	dirtyObjs   []*objScope
	dirtyFiles  []*fileScope
	dirtyTasks  []*taskScope
	dirtyStages []*stageScope

	recomputed int
	groups     int // the last view's group count, the next one's capacity
}

// group is what one rule found under one scope: immutable once built
// and shared by every View from the Sync that built it until the scope
// is next recomputed. enc memoises its compact encoding (see
// View.AppendCompactJSON).
type group struct {
	findings []Finding
	enc      groupEncoding
}

// groupOf wraps a rule's findings for a scope; none is no group.
func groupOf(fs []Finding) *group {
	if len(fs) == 0 {
		return nil
	}
	return &group{findings: fs}
}

// oneFinding is groupOf for the common case, the finding stored beside
// the group in one allocation.
func oneFinding(f Finding) *group {
	g := &struct {
		group
		one [1]Finding
	}{one: [1]Finding{f}}
	g.findings = g.one[:]
	return &g.group
}

// Slots of each scope's out array: one per finding kind the scope emits.
const (
	tMetaOnly = iota
	tMetaOverhead
	tPair
	tSmallIO
	tWriteAfterRead
	tReadAfterWrite
	tSequential
	numTaskSlots
)

const (
	fScatter = iota
	fReuse
	fDisposable
	fTimeDependent
	numFileSlots
)

const (
	oChunkedSmall = iota
	oVLenContiguous
	numObjSlots
)

const (
	sAllToAll = iota
	sFanIn
	numStageSlots
)

type taskScope struct {
	trace *trace.TaskTrace
	pos   int
	gen   uint64
	// files has one entry per distinct file in trace.Files, sorted by
	// file name; objs every object scope the task is linked into.
	files []taskFile
	objs  []*objScope
	// metaOnly are the mapped stats shaped like a metadata-only access.
	metaOnly []taskObj
	// pairPrev is the predecessor out[tPair] was computed against.
	pairPrev *taskScope
	dirty    bool
	dead     bool
	out      [numTaskSlots]*group
}

// taskFile is one task's use of one file. rec is the task's last record
// for the file — what the per-record rules read; reads and writes say
// whether any of its records read or wrote, which is what makes the
// task one of the file's readers or writers.
type taskFile struct {
	file          *fileScope
	rec           *trace.FileRecord
	reads, writes bool
}

type taskObj struct {
	stat *trace.MappedStat
	obj  *objScope
}

type fileScope struct {
	name string
	// users are the tasks holding a record for the file, in task order.
	users []fileUse
	// objOrder is the file's objects sorted by name, merged like
	// Index.fileOrder; nObjs counts the live ones.
	objOrder, objAdded []*objScope
	nObjs              int

	// What the last recompute saw, for the dependents: firstWriter feeds
	// the tasks' write-after-read test; firstReader is the task whose
	// position a pure input's time-dependent-input finding embeds.
	firstWriter, firstReader *taskScope
	pure                     bool
	writersChanged           bool

	dirty, dead bool
	out         [numFileSlots]*group
}

type fileUse struct {
	task          *taskScope
	reads, writes bool
	// readsAndWrites: the task's record moves content both ways, so its
	// write-after-read finding hangs on the file's first writer.
	readsAndWrites bool
}

type objKey struct {
	file *fileScope
	name string
}

type objScope struct {
	objKey
	// stats is unordered (the rules take its maximum and its sum); descs
	// is in task order, then the order of the task's Objects: the
	// winning description depends on it. Most objects have one of each,
	// which stat1 and desc1 hold without a second allocation.
	stats []objStat
	descs []objDesc
	stat1 [1]objStat
	desc1 [1]objDesc

	// The winning description's size when it gives one (Shape and
	// ElemSize), and the observed bytes the rules fall back to.
	described        bool
	descSize         int64
	maxData, sumData int64

	dirty, dead bool
	out         [numObjSlots]*group
}

type objStat struct {
	task *taskScope
	stat *trace.MappedStat
}

type objDesc struct {
	task *taskScope
	rec  *trace.ObjectRecord
}

type stageScope struct {
	name  string
	tasks []string
	dirty bool
	out   [numStageSlots]*group
}

// NewIndex returns an empty index applying th (zero fields select the
// defaults).
func NewIndex(th Thresholds) *Index {
	ix := &Index{th: th.withDefaults()}
	ix.reset(nil)
	return ix
}

// reset empties the index and installs manifest m: stage membership is
// the one thing the rules read from it (task order is Sync's input).
func (ix *Index) reset(m *trace.Manifest) {
	*ix = Index{
		th:       ix.th,
		manifest: m,
		byTrace:  map[*trace.TaskTrace]*taskScope{},
		byName:   map[string]*taskScope{},
		files:    map[string]*fileScope{},
		objs:     map[objKey]*objScope{},
	}
	if m == nil {
		return
	}
	ix.stageRank = map[string]int{}
	ix.stagesOf = map[string][]*stageScope{}
	for i, stage := range m.StageOrder {
		tasks := m.Stages[stage]
		for _, task := range tasks {
			ix.stageRank[task] = i
		}
		if len(tasks) == 0 {
			continue
		}
		st := &stageScope{name: stage, tasks: tasks}
		ix.stages = append(ix.stages, st)
		for _, task := range tasks {
			ix.stagesOf[task] = append(ix.stagesOf[task], st)
		}
		ix.touchStage(st)
	}
}

// Sync brings the index to the trace set ordered — which must be in
// task order, analyzer.OrderTasks(traces, m) — under manifest m and
// returns the findings as an immutable view. The view is what a fresh
// index given the same arguments returns, finding for finding: both run
// the same rule code over the same inverted indexes, and a scope is
// kept only while nothing its rules read has changed.
func (ix *Index) Sync(ordered []*trace.TaskTrace, m *trace.Manifest) *View {
	if m != ix.manifest || ix.dups {
		ix.reset(m)
	}
	if !ix.patch(ordered) {
		ix.reset(m)
		ix.patch(ordered)
	}
	return ix.view()
}

// patch applies the difference between the indexed set and ordered. It
// reports false — leaving the index to be reset — when the difference
// is not a set of additions and removals: retained tasks changed
// relative order, or a task arrived under a name another still holds.
// From empty it always succeeds.
func (ix *Index) patch(ordered []*trace.TaskTrace) bool {
	fresh := len(ix.tasks) == 0
	ix.gen++
	ix.recomputed = 0

	next := make([]*taskScope, 0, len(ordered))
	last := -1
	for _, tt := range ordered {
		t := ix.byTrace[tt]
		if t != nil {
			if t.pos <= last {
				return false
			}
			last = t.pos
			t.gen = ix.gen
		}
		next = append(next, t)
	}

	// Removals first, while the old positions still order every list.
	for _, t := range ix.tasks {
		if t.gen != ix.gen {
			ix.unlink(t)
		}
	}
	// time-dependent-input is silent below three tasks.
	if (len(ix.tasks) < 3) != (len(next) < 3) {
		for _, f := range ix.files {
			ix.touchFile(f)
		}
	}
	var added []*taskScope
	for i, t := range next {
		if t == nil {
			t = newTaskScope(ordered[i], ix.gen)
			next[i] = t
			added = append(added, t)
		} else if t.pos != i {
			// A retained task moved: the pure inputs it is first to read
			// name its position.
			for _, tf := range t.files {
				if tf.file.pure && tf.file.firstReader == t {
					ix.touchFile(tf.file)
				}
			}
		}
		t.pos = i
	}
	ix.tasks = next
	for _, t := range added {
		if !ix.link(t, fresh) {
			return false
		}
	}

	for _, o := range ix.dirtyObjs {
		ix.objectRules(o)
	}
	for _, f := range ix.dirtyFiles {
		ix.fileRules(f)
	}
	for _, t := range ix.dirtyTasks {
		ix.taskRules(t)
	}
	var prev *taskScope
	for _, t := range ix.tasks {
		if t.pairPrev != prev {
			ix.pairRule(t, prev)
		}
		prev = t
	}
	for _, st := range ix.dirtyStages {
		ix.stageRules(st)
	}
	// Emptied, not just truncated: a scope that dies later must not stay
	// reachable from a work list's spare capacity.
	clear(ix.dirtyObjs)
	clear(ix.dirtyFiles)
	clear(ix.dirtyTasks)
	clear(ix.dirtyStages)
	ix.dirtyObjs, ix.dirtyFiles = ix.dirtyObjs[:0], ix.dirtyFiles[:0]
	ix.dirtyTasks, ix.dirtyStages = ix.dirtyTasks[:0], ix.dirtyStages[:0]

	ix.fileOrder = mergeSorted(ix.fileOrder, ix.fileAdded,
		func(f *fileScope) bool { return f.dead },
		func(a, b *fileScope) int { return strings.Compare(a.name, b.name) })
	ix.fileAdded = ix.fileAdded[:0]
	ix.nameOrder = mergeSorted(ix.nameOrder, ix.nameAdded,
		func(t *taskScope) bool { return t.dead },
		func(a, b *taskScope) int {
			if c := strings.Compare(a.trace.Task, b.trace.Task); c != 0 {
				return c
			}
			return cmp.Compare(a.pos, b.pos)
		})
	ix.nameAdded = ix.nameAdded[:0]
	return true
}

// mergeSorted brings a sorted membership list up to date in place: the
// dead leave, the added are sorted and merged in.
func mergeSorted[T any](sorted, added []T, dead func(T) bool, compare func(a, b T) int) []T {
	sorted = slices.DeleteFunc(sorted, dead)
	if len(added) == 0 {
		return sorted
	}
	slices.SortFunc(added, compare)
	i, j := len(sorted)-1, len(added)-1
	sorted = append(sorted, added...)
	for k := len(sorted) - 1; j >= 0; k-- {
		if i >= 0 && compare(sorted[i], added[j]) > 0 {
			sorted[k] = sorted[i]
			i--
		} else {
			sorted[k] = added[j]
			j--
		}
	}
	return sorted
}

func newTaskScope(tt *trace.TaskTrace, gen uint64) *taskScope {
	return &taskScope{trace: tt, gen: gen,
		files: make([]taskFile, 0, len(tt.Files)),
		objs:  make([]*objScope, 0, len(tt.Mapped)+len(tt.Objects))}
}

// link enters a new task into the inverted indexes, marking what it
// touches dirty. It reports false when the name is taken and the index
// holds earlier state that a last-wins overwrite would corrupt.
func (ix *Index) link(t *taskScope, fresh bool) bool {
	tt := t.trace
	if _, taken := ix.byName[tt.Task]; taken {
		if !fresh {
			return false
		}
		ix.dups = true
	}
	ix.byName[tt.Task] = t
	ix.byTrace[tt] = t
	ix.nameAdded = append(ix.nameAdded, t)
	for _, st := range ix.stagesOf[tt.Task] {
		ix.touchStage(st)
	}

	// One use per distinct file, sorted by name: the last record stands
	// for the task, any record makes it a reader or a writer.
	for i := range tt.Files {
		rec := &tt.Files[i]
		t.files = append(t.files, taskFile{rec: rec, reads: rec.Reads > 0, writes: rec.Writes > 0})
	}
	slices.SortStableFunc(t.files, func(a, b taskFile) int { return strings.Compare(a.rec.File, b.rec.File) })
	uses := t.files[:0]
	for _, tf := range t.files {
		if n := len(uses); n > 0 && uses[n-1].rec.File == tf.rec.File {
			tf.reads, tf.writes = tf.reads || uses[n-1].reads, tf.writes || uses[n-1].writes
			uses[n-1] = tf
			continue
		}
		uses = append(uses, tf)
	}
	t.files = uses
	for i := range t.files {
		tf := &t.files[i]
		f := ix.file(tf.rec.File)
		tf.file = f
		// After every user at or before t's position: task order.
		at, _ := slices.BinarySearchFunc(f.users, t.pos+1, func(u fileUse, pos int) int { return cmp.Compare(u.task.pos, pos) })
		f.users = slices.Insert(f.users, at, fileUse{task: t, reads: tf.reads, writes: tf.writes,
			readsAndWrites: tf.rec.DataReads > 0 && tf.rec.DataWrites > 0})
		f.writersChanged = f.writersChanged || tf.writes
		ix.touchFile(f)
	}
	ix.ownRecordRules(t)

	var f *fileScope
	for i := range tt.Mapped {
		ms := &tt.Mapped[i]
		if f == nil || f.name != ms.File {
			f = ix.file(ms.File)
		}
		o := ix.object(f, ms.Object)
		o.stats = append(o.stats, objStat{task: t, stat: ms})
		if ms.Object != "" && ms.Reads != 0 && ms.DataOps == 0 && ms.MetaOps != 0 {
			t.metaOnly = append(t.metaOnly, taskObj{stat: ms, obj: o})
		}
		t.objs = append(t.objs, o)
		ix.touchObj(o)
	}
	for i := range tt.Objects {
		rec := &tt.Objects[i]
		if f == nil || f.name != rec.File {
			f = ix.file(rec.File)
		}
		o := ix.object(f, rec.Object)
		at, _ := slices.BinarySearchFunc(o.descs, t.pos+1, func(d objDesc, pos int) int { return cmp.Compare(d.task.pos, pos) })
		o.descs = slices.Insert(o.descs, at, objDesc{task: t, rec: rec})
		t.objs = append(t.objs, o)
		ix.touchObj(o)
	}
	ix.touchTask(t)
	return true
}

// unlink takes a task that left the set out of the inverted indexes,
// marking what it touched dirty; scopes it leaves empty die when they
// are recomputed.
func (ix *Index) unlink(t *taskScope) {
	t.dead = true
	delete(ix.byTrace, t.trace)
	if ix.byName[t.trace.Task] == t {
		delete(ix.byName, t.trace.Task)
	}
	for _, st := range ix.stagesOf[t.trace.Task] {
		ix.touchStage(st)
	}
	for _, tf := range t.files {
		f := tf.file
		f.users = slices.DeleteFunc(f.users, func(u fileUse) bool { return u.task == t })
		f.writersChanged = f.writersChanged || tf.writes
		ix.touchFile(f)
	}
	for _, o := range t.objs {
		o.stats = slices.DeleteFunc(o.stats, func(s objStat) bool { return s.task == t })
		o.descs = slices.DeleteFunc(o.descs, func(d objDesc) bool { return d.task == t })
		ix.touchObj(o)
	}
}

func (ix *Index) file(name string) *fileScope {
	f := ix.files[name]
	if f == nil {
		f = &fileScope{name: name}
		ix.files[name] = f
		ix.fileAdded = append(ix.fileAdded, f)
		ix.touchFile(f)
	}
	return f
}

func (ix *Index) object(f *fileScope, name string) *objScope {
	key := objKey{f, name}
	o := ix.objs[key]
	if o == nil {
		o = &objScope{objKey: key}
		o.stats, o.descs = o.stat1[:0], o.desc1[:0]
		ix.objs[key] = o
		f.objAdded = append(f.objAdded, o)
		f.nObjs++
	}
	return o
}

func (ix *Index) touchObj(o *objScope) {
	if !o.dirty {
		o.dirty = true
		ix.dirtyObjs = append(ix.dirtyObjs, o)
		ix.touchFile(o.file) // data-scattering reads its objects' sizes
	}
}

func (ix *Index) touchFile(f *fileScope) {
	if !f.dirty {
		f.dirty = true
		ix.dirtyFiles = append(ix.dirtyFiles, f)
	}
}

func (ix *Index) touchTask(t *taskScope) {
	if !t.dirty {
		t.dirty = true
		ix.dirtyTasks = append(ix.dirtyTasks, t)
	}
}

func (ix *Index) touchStage(st *stageScope) {
	if !st.dirty {
		st.dirty = true
		ix.dirtyStages = append(ix.dirtyStages, st)
	}
}

// View is the findings of one Sync: references to the index's cached
// groups in emission order, not copies. It is immutable and safe for
// concurrent use, and stays valid — and unchanged — however the index
// moves on.
type View struct {
	groups []*group
	n      int
	// Recomputed and Reused count the scopes (tasks, adjacent pairs,
	// files, objects, stages) the Sync recomputed and kept.
	Recomputed, Reused int
}

// emission is the order findings come out in: severity descending, then
// kind ascending (every kind has one severity), each kind in its rule's
// own order — the scope walk named here.
var emission = [...]struct {
	walk func(ix *Index, slot int, v *View)
	slot int
}{
	// critical
	{(*Index).walkFiles, fScatter}, // data-scattering
	// warning
	{(*Index).walkObjects, oChunkedSmall},     // chunked-small-data
	{(*Index).walkFiles, fReuse},              // data-reuse
	{(*Index).walkTasks, tMetaOnly},           // metadata-only-access
	{(*Index).walkTasks, tMetaOverhead},       // metadata-overhead
	{(*Index).walkTasks, tPair},               // no-data-dependency
	{(*Index).walkTasks, tSmallIO},            // small-io-requests
	{(*Index).walkObjects, oVLenContiguous},   // vlen-contiguous
	{(*Index).walkTaskNames, tWriteAfterRead}, // write-after-read
	// info
	{(*Index).walkStages, sAllToAll},          // all-to-all-pattern
	{(*Index).walkFiles, fDisposable},         // disposable-data
	{(*Index).walkStages, sFanIn},             // fan-in-pattern
	{(*Index).walkTaskNames, tReadAfterWrite}, // read-after-write
	{(*Index).walkTasks, tSequential},         // read-only-sequential
	{(*Index).walkFiles, fTimeDependent},      // time-dependent-input
}

func (ix *Index) walkFiles(slot int, v *View) {
	for _, f := range ix.fileOrder {
		v.add(f.out[slot])
	}
}

func (ix *Index) walkObjects(slot int, v *View) {
	for _, f := range ix.fileOrder {
		for _, o := range f.objOrder {
			v.add(o.out[slot])
		}
	}
}

func (ix *Index) walkTasks(slot int, v *View) {
	for _, t := range ix.tasks {
		v.add(t.out[slot])
	}
}

func (ix *Index) walkTaskNames(slot int, v *View) {
	for _, t := range ix.nameOrder {
		v.add(t.out[slot])
	}
}

func (ix *Index) walkStages(slot int, v *View) {
	for _, st := range ix.stages {
		v.add(st.out[slot])
	}
}

func (ix *Index) view() *View {
	v := &View{groups: make([]*group, 0, ix.groups), Recomputed: ix.recomputed}
	for _, e := range emission {
		e.walk(ix, e.slot, v)
	}
	ix.groups = len(v.groups)
	scopes := len(ix.tasks) + max(len(ix.tasks)-1, 0) + len(ix.fileOrder) + len(ix.objs) + len(ix.stages)
	v.Reused = scopes - v.Recomputed
	return v
}

func (v *View) add(g *group) {
	if g != nil {
		v.groups = append(v.groups, g)
		v.n += len(g.findings)
	}
}

// Findings copies the findings out, in order (nil when there are none).
func (v *View) Findings() []Finding {
	if v.n == 0 {
		return nil
	}
	out := make([]Finding, 0, v.n)
	for _, g := range v.groups {
		out = append(out, g.findings...)
	}
	return out
}
