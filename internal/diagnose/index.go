package diagnose

import (
	"cmp"
	"slices"
	"strings"

	"dayu/internal/analyzer"
	"dayu/internal/trace"
)

// Index is the rule set in its only form: a stateful index over a set
// of task traces that caches each rule's findings under the scope that
// determines them and, when the set changes, recomputes the scopes the
// change touches and nothing else. Analyze is an Index used once;
// `dayu serve` keeps one beside its build cache and applies every
// snapshot's live change to it, so a folded checkpoint costs what the
// checkpoint changed rather than a pass over the state.
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
// Apply takes the change — the removed and added traces and where the
// added ones sit — and edits the task list by position. It unlinks and
// links the tasks in the inverted indexes (file → tasks in task order,
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
// moved. Anything else — a new manifest, a change that does not say
// where its tasks go, two tasks under one name — rebuilds from empty,
// which is the same patch with every task added.
//
// The view is patched, not re-walked: each emission slot's groups are
// kept in one list, in runs the views share, and a recomputed scope's
// changed group is spliced in by binary search on the scope's key,
// copying the one run it lands in. A View holds the runs.
//
// An Index is not safe for concurrent use; the Views it returns are
// immutable and are.
type Index struct {
	th Thresholds

	manifest  *trace.Manifest
	stageRank map[string]int           // task name → index of its (last) stage in StageOrder
	stages    []*stageScope            // non-empty stages in StageOrder
	stagesOf  map[string][]*stageScope // task name → the stages listing it

	tasks   []*taskScope // task order, as Apply was given it
	byTrace map[*trace.TaskTrace]*taskScope
	byName  map[string]*taskScope // the last task of that name in task order
	// dups: two tasks share a name, which the inverted indexes do not
	// patch (byName is last-wins); every Apply rebuilds until it clears.
	dups bool

	files map[string]*fileScope
	objs  map[objKey]*objScope

	dirtyObjs   []*objScope
	dirtyFiles  []*fileScope
	dirtyTasks  []*taskScope
	dirtyStages []*stageScope
	// pairs are the tasks whose predecessor changed, whose pair rule
	// the patch in progress re-runs.
	pairs []*taskScope

	// listed holds every scope's groups in emission order, one list per
	// emission slot, in runs the views share; each scope's pub is what
	// the lists hold of it. A patch splices the groups its recomputed
	// scopes changed into the lists, copying the runs it writes, and a
	// view takes the runs. valid is false after a build from empty,
	// which lists nothing; the next patch rebuilds the lists from the
	// scopes (walk). epoch counts views: a run of an earlier epoch
	// belongs to a view.
	listed    [len(emission)]runList
	valid     bool
	epoch     uint64
	nFindings int
	walkBuf   []*group

	recomputed, walked, repositioned int
}

// group is what one rule found under one scope: immutable once built
// and shared by every View from the Apply that built it until the scope
// is next recomputed. enc memoises its compact encoding (see
// View.AppendCompactJSON).
type group struct {
	findings []Finding
	enc      groupEncoding
	// owner is the scope whose slot holds the group, which places it in
	// its emission list; set when the group is first listed, before any
	// view holds it.
	owner any
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
	out, pub [numTaskSlots]*group
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
	// objOrder is the file's objects sorted by name: the dead are
	// dropped and the added merged in when the file is recomputed. nObjs
	// counts the live ones.
	objOrder, objAdded []*objScope
	nObjs              int

	// What the last recompute saw, for the dependents: firstWriter feeds
	// the tasks' write-after-read test; firstReader is the task whose
	// position a pure input's time-dependent-input finding embeds.
	firstWriter, firstReader *taskScope
	pure                     bool
	writersChanged           bool

	dirty, dead bool
	out, pub    [numFileSlots]*group
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
	out, pub    [numObjSlots]*group
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
	name     string
	idx      int // in Index.stages
	tasks    []string
	dirty    bool
	out, pub [numStageSlots]*group
}

// NewIndex returns an empty index applying th (zero fields select the
// defaults).
func NewIndex(th Thresholds) *Index {
	ix := &Index{th: th.withDefaults()}
	ix.reset(nil)
	return ix
}

// reset empties the index and installs manifest m: stage membership is
// the one thing the rules read from it (task order is Apply's input).
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
		st := &stageScope{name: stage, idx: len(ix.stages), tasks: tasks}
		ix.stages = append(ix.stages, st)
		for _, task := range tasks {
			ix.stagesOf[task] = append(ix.stagesOf[task], st)
		}
		ix.touchStage(st)
	}
}

// Apply brings the index to ordered — the indexed set edited by ch, in
// task order (analyzer.OrderTasks) under m — and returns the findings
// as an immutable view. The view is what a fresh index given the same
// set returns, finding for finding: both run the same rule code over
// the same inverted indexes, and a scope is kept only while nothing its
// rules read has changed. Apply costs the change: the removed tasks are
// found by trace, the added ones put where ch.At says, and the view is
// spliced, not re-walked. A new manifest, two tasks under one name, a
// change without At, and an ordered that is not the edit ch describes
// rebuild from empty: the patch that adds every task.
func (ix *Index) Apply(ordered []*trace.TaskTrace, m *trace.Manifest, ch analyzer.Change) *View {
	if m != ix.manifest || ix.dups {
		ix.reset(m)
	}
	if len(ix.tasks) == 0 {
		ch = analyzer.Change{}
	}
	if !ix.patch(ordered, ch) {
		ix.reset(m)
		ix.patch(ordered, analyzer.Change{})
	}
	return ix.view()
}

// patch applies the edit ch that made the indexed set ordered. It
// reports false — leaving the index to be reset — when ordered is not
// that edit as far as it checks (a removed trace is not indexed, an
// added trace is not where ch.At puts it, ch.At is missing) or a task
// arrived under a name another still holds. From empty it always
// succeeds.
func (ix *Index) patch(ordered []*trace.TaskTrace, ch analyzer.Change) bool {
	fresh := len(ix.tasks) == 0
	ix.recomputed, ix.walked, ix.repositioned = 0, 0, 0

	leaving := make([]*taskScope, 0, len(ch.Removed))
	gone := make([]int, 0, len(ch.Removed))
	for _, tt := range ch.Removed {
		t := ix.byTrace[tt]
		if t == nil || t.dead {
			return false
		}
		t.dead = true
		leaving = append(leaving, t)
		gone = append(gone, t.pos)
	}
	before := len(ix.tasks)
	from, to, ok := analyzer.EditList(&ix.tasks, ordered, ch, gone,
		func(tt *trace.TaskTrace) bool { return ix.byTrace[tt] != nil })
	if !ok {
		return false
	}
	next := ix.tasks

	// Removals first, while the old positions still order every list.
	for _, t := range leaving {
		ix.unlink(t)
	}
	// time-dependent-input is silent below three tasks.
	if (before < 3) != (len(next) < 3) {
		for _, f := range ix.files {
			ix.touchFile(f)
		}
	}
	var added []*taskScope
	var prev *taskScope
	if from > 0 {
		prev = next[from-1]
	}
	for i := from; i < to; i++ {
		t := next[i]
		if t == nil {
			t = newTaskScope(ordered[i])
			next[i] = t
			added = append(added, t)
		} else if t.pos != i {
			// A retained task moved: the pure inputs it is first to read
			// name its position.
			ix.repositioned++
			for _, tf := range t.files {
				if tf.file.pure && tf.file.firstReader == t {
					ix.touchFile(tf.file)
				}
			}
		}
		t.pos = i
		if t.pairPrev != prev {
			ix.pairs = append(ix.pairs, t)
		}
		prev = t
	}
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
	for _, t := range ix.pairs {
		var prev *taskScope
		if t.pos > 0 {
			prev = ix.tasks[t.pos-1]
		}
		ix.pairRule(t, prev)
	}
	for _, st := range ix.dirtyStages {
		ix.stageRules(st)
	}
	ix.relist(fresh)
	// Emptied, not just truncated: a scope that dies later must not stay
	// reachable from a work list's spare capacity.
	clear(ix.dirtyObjs)
	clear(ix.dirtyFiles)
	clear(ix.dirtyTasks)
	clear(ix.dirtyStages)
	clear(ix.pairs)
	ix.dirtyObjs, ix.dirtyFiles = ix.dirtyObjs[:0], ix.dirtyFiles[:0]
	ix.dirtyTasks, ix.dirtyStages, ix.pairs = ix.dirtyTasks[:0], ix.dirtyStages[:0], ix.pairs[:0]
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

func newTaskScope(tt *trace.TaskTrace) *taskScope {
	return &taskScope{trace: tt,
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
	if ix.valid {
		for slot, g := range t.pub {
			if g != nil {
				ix.list(taskEmission[slot], t, g, nil)
			}
		}
	}
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

// View is the findings of one Apply: references to the index's cached
// groups in emission order, not copies. It is immutable and safe for
// concurrent use, and stays valid — and unchanged — however the index
// moves on.
type View struct {
	// groups are runs of the index's emission lists, in order.
	groups [][]*group
	n      int
	// Recomputed and Reused count the scopes (tasks, adjacent pairs,
	// files, objects, stages) the Apply recomputed and kept.
	Recomputed, Reused int
	// Walked counts the scopes walked for the view: every scope, once per
	// emission slot, by a build from empty and by the patch after it,
	// which lists them; none otherwise. Repositioned counts the retained
	// tasks the edit moved: every task after an insert or a removal that
	// is not a replacement in place.
	Walked, Repositioned int
}

// The orders of the emission lists: which scope a slot belongs to, and
// how that scope's groups are ordered in the list.
const (
	byFile     = iota // file name
	byObject          // file name, then object name
	byTask            // task order
	byTaskName        // task name, then task order
	byStage           // the manifest's StageOrder
)

// emission is the order findings come out in: severity descending, then
// kind ascending (every kind has one severity), each kind in its rule's
// own order — the scope order named here.
var emission = [...]struct{ order, slot int }{
	// critical
	{byFile, fScatter}, // data-scattering
	// warning
	{byObject, oChunkedSmall},     // chunked-small-data
	{byFile, fReuse},              // data-reuse
	{byTask, tMetaOnly},           // metadata-only-access
	{byTask, tMetaOverhead},       // metadata-overhead
	{byTask, tPair},               // no-data-dependency
	{byTask, tSmallIO},            // small-io-requests
	{byObject, oVLenContiguous},   // vlen-contiguous
	{byTaskName, tWriteAfterRead}, // write-after-read
	// info
	{byStage, sAllToAll},          // all-to-all-pattern
	{byFile, fDisposable},         // disposable-data
	{byStage, sFanIn},             // fan-in-pattern
	{byTaskName, tReadAfterWrite}, // read-after-write
	{byTask, tSequential},         // read-only-sequential
	{byFile, fTimeDependent},      // time-dependent-input
}

// The emission list of each scope slot.
var (
	taskEmission  [numTaskSlots]int
	fileEmission  [numFileSlots]int
	objEmission   [numObjSlots]int
	stageEmission [numStageSlots]int
)

func init() {
	for e, em := range emission {
		switch em.order {
		case byFile:
			fileEmission[em.slot] = e
		case byObject:
			objEmission[em.slot] = e
		case byTask, byTaskName:
			taskEmission[em.slot] = e
		default:
			stageEmission[em.slot] = e
		}
	}
}

// compareOwners orders two scopes of one kind as an emission list of
// the given order does.
func compareOwners(order int, a, b any) int {
	switch order {
	case byFile:
		return strings.Compare(a.(*fileScope).name, b.(*fileScope).name)
	case byObject:
		oa, ob := a.(*objScope), b.(*objScope)
		if c := strings.Compare(oa.file.name, ob.file.name); c != 0 {
			return c
		}
		return strings.Compare(oa.name, ob.name)
	case byTask:
		return cmp.Compare(a.(*taskScope).pos, b.(*taskScope).pos)
	case byTaskName:
		ta, tb := a.(*taskScope), b.(*taskScope)
		if c := strings.Compare(ta.trace.Task, tb.trace.Task); c != 0 {
			return c
		}
		return cmp.Compare(ta.pos, tb.pos)
	default:
		return cmp.Compare(a.(*stageScope).idx, b.(*stageScope).idx)
	}
}

// list replaces owner's group old with new in emission list e, either
// of them nil: old is found by binary search, new placed by it.
func (ix *Index) list(e int, owner any, old, new *group) {
	l, order := &ix.listed[e], emission[e].order
	if old != nil {
		r, i := l.find(old, func(g *group) bool { return compareOwners(order, g.owner, owner) < 0 })
		ix.nFindings -= len(old.findings)
		if new == nil {
			l.delete(r, i, ix.epoch)
		} else {
			l.set(r, i, new, ix.epoch)
		}
	} else if new != nil {
		r, i := l.search(func(g *group) bool { return compareOwners(order, g.owner, owner) <= 0 })
		l.insert(r, i, new, ix.epoch)
	}
	if new != nil {
		if new.owner == nil {
			new.owner = owner
		}
		ix.nFindings += len(new.findings)
	}
}

// relist brings the emission lists up to the scopes the patch
// recomputed: each group a scope changed is spliced in or out. A build
// from empty lists nothing — Analyze reads its one view and is done,
// and view walks the scopes for it — so the first patch after one
// rebuilds the lists instead (walk).
func (ix *Index) relist(fresh bool) {
	if fresh {
		ix.valid = false
		return
	}
	if !ix.valid {
		ix.walk(true)
		return
	}
	for _, o := range ix.dirtyObjs {
		ix.relistScope(o, o.dead, o.out[:], o.pub[:], objEmission[:])
	}
	for _, f := range ix.dirtyFiles {
		ix.relistScope(f, f.dead, f.out[:], f.pub[:], fileEmission[:])
	}
	for _, t := range ix.dirtyTasks {
		ix.relistScope(t, t.dead, t.out[:], t.pub[:], taskEmission[:])
	}
	for _, t := range ix.pairs {
		ix.relistScope(t, t.dead, t.out[:], t.pub[:], taskEmission[:])
	}
	for _, st := range ix.dirtyStages {
		ix.relistScope(st, false, st.out[:], st.pub[:], stageEmission[:])
	}
}

// relistScope lists what changed of one scope's groups: out (nothing,
// for a dead scope) against pub, slot by slot, emits naming each slot's
// emission list.
func (ix *Index) relistScope(owner any, dead bool, out, pub []*group, emits []int) {
	for slot, want := range out {
		if dead {
			want = nil
		}
		if want != pub[slot] {
			ix.list(emits[slot], owner, pub[slot], want)
			pub[slot] = want
		}
	}
}

// walk visits every scope once per emission slot, in the emission
// orders, and counts the visits. With list it rebuilds the emission
// lists from the groups it finds, each group learning its owner and
// each slot what the lists hold of it; without, it only returns the
// groups, one run per emission slot that has any.
func (ix *Index) walk(list bool) [][]*group {
	files := make([]*fileScope, 0, len(ix.files))
	for _, f := range ix.files {
		files = append(files, f)
	}
	slices.SortFunc(files, func(a, b *fileScope) int { return strings.Compare(a.name, b.name) })
	names := slices.Clone(ix.tasks)
	slices.SortFunc(names, func(a, b *taskScope) int { return compareOwners(byTaskName, a, b) })

	ix.nFindings = 0
	var all []*group
	var ends []int
	for e, em := range emission {
		l := all
		if list {
			l = ix.walkBuf[:0]
		}
		switch em.order {
		case byFile:
			for _, f := range files {
				l = ix.walkScope(l, list, f, f.out[em.slot], &f.pub[em.slot])
			}
		case byObject:
			for _, f := range files {
				for _, o := range f.objOrder {
					l = ix.walkScope(l, list, o, o.out[em.slot], &o.pub[em.slot])
				}
			}
		case byTask:
			for _, t := range ix.tasks {
				l = ix.walkScope(l, list, t, t.out[em.slot], &t.pub[em.slot])
			}
		case byTaskName:
			for _, t := range names {
				l = ix.walkScope(l, list, t, t.out[em.slot], &t.pub[em.slot])
			}
		default:
			for _, st := range ix.stages {
				l = ix.walkScope(l, list, st, st.out[em.slot], &st.pub[em.slot])
			}
		}
		if !list {
			if len(l) > len(all) {
				ends = append(ends, len(l))
			}
			all = l
			continue
		}
		// The runs slice a fresh array: the scratch goes on to the next
		// list.
		ix.listed[e].reset(slices.Clone(l), ix.epoch)
		ix.walkBuf = l
	}
	if list {
		clear(ix.walkBuf)
		ix.valid = true
		return nil
	}
	runs := make([][]*group, len(ends))
	start := 0
	for i, end := range ends {
		runs[i], start = all[start:end:end], end
	}
	return runs
}

func (ix *Index) walkScope(l []*group, list bool, owner any, g *group, pub **group) []*group {
	ix.walked++
	if list {
		*pub = g
	}
	if g == nil {
		return l
	}
	if list && g.owner == nil {
		g.owner = owner
	}
	ix.nFindings += len(g.findings)
	return append(l, g)
}

// view takes the emission lists' runs, which it shares with the index
// until the index copies them to write; after a build from empty, which
// keeps no lists, it walks the scopes.
func (ix *Index) view() *View {
	v := &View{Recomputed: ix.recomputed}
	if ix.valid {
		size := 0
		for e := range ix.listed {
			size += len(ix.listed[e].runs)
		}
		v.groups = make([][]*group, 0, size)
		for e := range ix.listed {
			v.groups = append(v.groups, ix.listed[e].runs...)
		}
		ix.epoch++
	} else {
		v.groups = ix.walk(false)
	}
	v.n, v.Walked, v.Repositioned = ix.nFindings, ix.walked, ix.repositioned
	scopes := len(ix.tasks) + max(len(ix.tasks)-1, 0) + len(ix.files) + len(ix.objs) + len(ix.stages)
	v.Reused = scopes - v.Recomputed
	return v
}

func (v *View) add(g *group) {
	if g != nil {
		v.groups = append(v.groups, []*group{g})
		v.n += len(g.findings)
	}
}

// Findings copies the findings out, in order (nil when there are none).
func (v *View) Findings() []Finding {
	if v.n == 0 {
		return nil
	}
	out := make([]Finding, 0, v.n)
	for _, run := range v.groups {
		for _, g := range run {
			out = append(out, g.findings...)
		}
	}
	return out
}
