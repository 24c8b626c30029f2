package tracer

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dayu/internal/hdf5"
	"dayu/internal/semantics"
	"dayu/internal/sim"
	"dayu/internal/trace"
	"dayu/internal/vfd"
	"dayu/internal/vol"
)

// refTables rebuilds Files, Mapped and Objects from a logged op and
// event prefix the way the tracer once did at every checkpoint: raw
// extent lists merged once with trace.MergeExtents, rows sorted with
// sort.Slice. It is the oracle the incremental tables are held to.
func refTables(task string, ops []vfd.Op, events []vol.Event) ([]trace.FileRecord, []trace.MappedStat, []trace.ObjectRecord) {
	type fileRef struct {
		rec         trace.FileRecord
		lastDataEnd int64
		extents     []trace.Extent
	}
	type mapRef struct {
		rec     trace.MappedStat
		extents []trace.Extent
	}
	fileAggs := map[string]*fileRef{}
	mapAggs := map[trace.RowKey]*mapRef{}
	for _, op := range ops {
		ns := op.Wall.UnixNano()
		ext := trace.Extent{Start: op.Offset, End: op.End()}
		fa := fileAggs[op.File]
		if fa == nil {
			fa = &fileRef{rec: trace.FileRecord{Task: task, File: op.File, OpenNS: ns}}
			fileAggs[op.File] = fa
		}
		f := &fa.rec
		f.CloseNS = ns
		f.Ops++
		if op.Write {
			f.Writes++
			f.BytesWritten += op.Length
		} else {
			f.Reads++
			f.BytesRead += op.Length
		}
		if op.Class == sim.Metadata {
			f.MetaOps++
			f.MetaBytes += op.Length
		} else {
			if op.Offset >= fa.lastDataEnd && f.DataOps > 0 {
				f.SequentialOps++
			}
			fa.lastDataEnd = op.End()
			f.DataOps++
			f.DataBytes += op.Length
			if op.Write {
				f.DataWrites++
			} else {
				f.DataReads++
			}
		}
		fa.extents = append(fa.extents, ext)

		key := trace.RowKey{File: op.File, Object: op.Object}
		ma := mapAggs[key]
		if ma == nil {
			ma = &mapRef{rec: trace.MappedStat{Task: task, File: op.File, Object: op.Object, FirstNS: ns}}
			mapAggs[key] = ma
		}
		m := &ma.rec
		m.LastNS = ns
		if op.Class == sim.Metadata {
			m.MetaOps++
			m.MetaBytes += op.Length
		} else {
			m.DataOps++
			m.DataBytes += op.Length
		}
		if op.Write {
			m.Writes++
		} else {
			m.Reads++
		}
		ma.extents = append(ma.extents, ext)
	}

	type life struct{ open, close int64 }
	lives := map[string]*life{}
	objAggs := map[trace.RowKey]*trace.ObjectRecord{}
	for _, ev := range events {
		ns := ev.Wall.UnixNano()
		switch ev.Kind {
		case vol.FileCreate, vol.FileOpen:
			if lives[ev.Info.File] == nil {
				lives[ev.Info.File] = &life{ns, ns}
			}
		case vol.FileClose:
			if l := lives[ev.Info.File]; l != nil {
				l.close = ns
			}
		default:
			key := trace.RowKey{File: ev.Info.File, Object: ev.Info.Name}
			o := objAggs[key]
			fresh := o == nil
			if fresh {
				o = &trace.ObjectRecord{Task: task, File: key.File, Object: key.Object, AcquiredNS: ns}
				objAggs[key] = o
			}
			if fresh || ev.Info.Datatype != "" {
				o.Type, o.Datatype, o.Shape = ev.Info.Type, ev.Info.Datatype, ev.Info.Shape
				o.ElemSize, o.Layout, o.ChunkDims = ev.Info.ElemSize, ev.Info.Layout, ev.Info.ChunkDims
			}
			o.ReleasedNS = ns
			switch ev.Kind {
			case vol.DatasetRead, vol.AttrRead:
				o.Reads++
				o.BytesRead += ev.Bytes
			case vol.DatasetWrite, vol.AttrWrite:
				o.Writes++
				o.BytesWritten += ev.Bytes
			}
		}
	}

	files := make([]trace.FileRecord, 0, len(fileAggs))
	for _, fa := range fileAggs {
		rec := fa.rec
		rec.Regions = trace.MergeExtents(fa.extents)
		if l := lives[rec.File]; l != nil {
			rec.OpenNS = l.open
			if l.close > rec.CloseNS {
				rec.CloseNS = l.close
			}
		}
		files = append(files, rec)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].File < files[j].File })
	mapped := make([]trace.MappedStat, 0, len(mapAggs))
	for _, ma := range mapAggs {
		rec := ma.rec
		rec.Regions = trace.MergeExtents(ma.extents)
		mapped = append(mapped, rec)
	}
	sort.Slice(mapped, func(i, j int) bool {
		if mapped[i].File != mapped[j].File {
			return mapped[i].File < mapped[j].File
		}
		return mapped[i].Object < mapped[j].Object
	})
	objects := make([]trace.ObjectRecord, 0, len(objAggs))
	for _, o := range objAggs {
		objects = append(objects, *o)
	}
	sort.Slice(objects, func(i, j int) bool {
		if objects[i].File != objects[j].File {
			return objects[i].File < objects[j].File
		}
		return objects[i].Object < objects[j].Object
	})
	return files, mapped, objects
}

// replayChecker logs every op and event before the tracer sees it, and
// holds each checkpoint to two contracts: its tables equal refTables
// over the same prefix, and no earlier checkpoint has changed since it
// was emitted (the tracer.Sink retention rule).
type replayChecker struct {
	t       testing.TB
	tr      *Tracer
	ops     []vfd.Op
	events  []vol.Event
	emitted []*trace.TaskTrace
	snaps   [][]byte
}

func (c *replayChecker) Observe(op vfd.Op) {
	c.ops = append(c.ops, op)
	c.tr.VFDObserver().Observe(op)
}

func (c *replayChecker) OnEvent(ev vol.Event) {
	c.events = append(c.events, ev)
	c.tr.VOLObserver().OnEvent(ev)
}

func (c *replayChecker) EmitCheckpoint(tt *trace.TaskTrace, _ uint64) { c.check(tt) }
func (c *replayChecker) EmitFinal(*trace.TaskTrace)                   {}

func (c *replayChecker) check(tt *trace.TaskTrace) {
	c.t.Helper()
	files, mapped, objects := refTables(c.tr.task, c.ops, c.events)
	n := len(c.emitted)
	if !reflect.DeepEqual(tt.Files, files) {
		c.t.Fatalf("checkpoint %d (%d ops): Files\n got %+v\nwant %+v", n, len(c.ops), tt.Files, files)
	}
	if !reflect.DeepEqual(tt.Mapped, mapped) {
		c.t.Fatalf("checkpoint %d (%d ops): Mapped\n got %+v\nwant %+v", n, len(c.ops), tt.Mapped, mapped)
	}
	if !reflect.DeepEqual(tt.Objects, objects) {
		c.t.Fatalf("checkpoint %d (%d events): Objects\n got %+v\nwant %+v", n, len(c.events), tt.Objects, objects)
	}
	for i, prev := range c.emitted {
		b, err := snapshotBytes(prev)
		if err != nil {
			c.t.Fatal(err)
		}
		if !bytes.Equal(b, c.snaps[i]) {
			c.t.Fatalf("checkpoint %d changed after emission (now at checkpoint %d)", i, n)
		}
	}
	b, err := snapshotBytes(tt)
	if err != nil {
		c.t.Fatal(err)
	}
	c.emitted = append(c.emitted, tt)
	c.snaps = append(c.snaps, b)
}

// checkCheckpointStream decodes an op sequence from data and drives the
// profilers with it directly. data[0] picks the tracer's CheckpointOps
// (0: checkpoints only where the stream asks); each op then reads three
// bytes: kind and flags, offset, length. Offsets and lengths are small,
// so extents touch, nest, repeat and have zero length. At most 128 ops
// are read, because every checkpoint re-encodes all earlier ones.
func checkCheckpointStream(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	c := &replayChecker{t: t}
	c.tr = New(Config{Sink: c, CheckpointOps: int64(data[0] % 8), Now: fixedClock()})
	c.tr.BeginTask("t")
	files := [2]string{"b.h5", "a.h5"}
	objects := [4]string{semantics.NoObject, "/d", "/c", "/d/attr"}
	data = data[1:]
	for i := 0; i+3 <= len(data) && i < 3*128; i += 3 {
		b, off, length := data[i], int64(data[i+1]%64), int64(data[i+2]%12)
		file, object := files[b&1], objects[(b>>1)&3]
		write, meta := b&8 != 0, b&16 != 0
		wall := time.Unix(0, int64(i))
		switch b >> 5 {
		case 5:
			info := vol.ObjectInfo{Name: object, File: file, Type: "dataset", Shape: []int64{off}}
			if meta {
				info.Datatype = "float64"
			}
			kind := vol.DatasetRead
			if write {
				kind = vol.DatasetWrite
			}
			c.OnEvent(vol.Event{Kind: kind, Wall: wall, Task: "t", Info: info, Bytes: length})
		case 6:
			kind := vol.FileOpen
			if write {
				kind = vol.FileClose
			}
			c.OnEvent(vol.Event{Kind: kind, Wall: wall, Task: "t", Info: vol.ObjectInfo{Name: "/", File: file, Type: "file"}})
		case 7:
			c.check(c.tr.Checkpoint())
		default:
			class := sim.RawData
			if meta {
				class = sim.Metadata
			}
			c.Observe(vfd.Op{Seq: int64(i), Wall: wall, Offset: off, Length: length, Write: write,
				Class: class, Object: object, File: file, Task: "t"})
		}
	}
	c.check(c.tr.EndTask())
}

// FuzzCheckpointStream: whatever the op sequence and wherever the
// checkpoints fall, a checkpoint's tables equal a fresh rebuild of the
// same prefix, and an emitted checkpoint is never written again.
func FuzzCheckpointStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 4, 0, 4, 4, 0, 8, 4, 0x02, 2, 2, 0xe0, 0, 0})
	f.Add([]byte{0, 0x10, 10, 5, 0x10, 0, 5, 0x02, 5, 0, 0x02, 3, 4, 0xe0, 0, 0, 0x03, 20, 3, 0xa6, 0, 9, 0xc8, 0, 0})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 1+3*128)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkCheckpointStream)
}

// TestCheckpointMatchesFreshReplay is the same check on a real hdf5
// workload across two files, with a checkpoint after every operation.
func TestCheckpointMatchesFreshReplay(t *testing.T) {
	c := &replayChecker{t: t}
	c.tr = New(Config{Sink: c, CheckpointOps: 1, Now: fixedClock()})
	c.tr.BeginTask("stage0/replay")
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"b.h5", "a.h5"} {
		drv := vfd.NewProfiledDriver(vfd.NewMemDriver(), name, c.tr.Mailbox(), c)
		f, err := hdf5.Create(drv, name, hdf5.Config{Mailbox: c.tr.Mailbox(), Observer: c, Task: "stage0/replay"})
		if err != nil {
			t.Fatal(err)
		}
		var sets []*hdf5.Dataset
		for i, opts := range []*hdf5.DatasetOpts{nil, {Layout: hdf5.Chunked, ChunkDims: []int64{96}}, {Layout: hdf5.Compact}} {
			size := int64(256 + 128*i)
			ds, err := f.Root().CreateDataset(fmt.Sprintf("d%d", 2-i), hdf5.Uint8, []int64{size}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.WriteAll(make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			if err := ds.SetAttrString("units", "m"); err != nil {
				t.Fatal(err)
			}
			sets = append(sets, ds)
		}
		for i := 0; i < 12; i++ {
			ds := sets[rng.Intn(len(sets))]
			dim := ds.Dims()[0]
			off := rng.Int63n(dim)
			cnt := 1 + rng.Int63n(dim-off)
			if rng.Intn(2) == 0 {
				if _, err := ds.Read(hdf5.Slab1D(off, cnt)); err != nil {
					t.Fatal(err)
				}
			} else if err := ds.Write(hdf5.Slab1D(off, cnt), make([]byte, cnt)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	c.check(c.tr.EndTask())
	if len(c.emitted) < 50 || len(c.emitted) != len(c.ops)+1 {
		t.Fatalf("%d checkpoints over %d ops, want one per op plus the final", len(c.emitted), len(c.ops))
	}
}

// TestObserveWarmOpZeroAllocs: once an object's aggregates exist, an op
// whose extent meets a stored one updates them in place. Each op is
// measured alone, so an occasional slice growth cannot average away.
func TestObserveWarmOpZeroAllocs(t *testing.T) {
	tr := New(Config{})
	tr.BeginTask("t")
	p := tr.vfdProf
	op := vfd.Op{Wall: time.Unix(0, 1), File: "f.h5", Object: "/d", Offset: 0, Length: 64}
	p.Observe(op)
	op.Offset = 1 << 20
	p.Observe(op)
	for _, tc := range []struct {
		name         string
		offset, step int64
	}{
		// Each op starts where the last ended: the fast path.
		{"sequential", 1<<20 + 64, 64},
		// Rewrites inside the first extent: the binary-search path.
		{"rewrite", 32, 0},
	} {
		op.Offset = tc.offset
		var allocs float64
		for i := 0; i < 1000; i++ {
			allocs += testing.AllocsPerRun(1, func() {
				p.Observe(op)
				op.Offset += tc.step
			})
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations over 1000 measured warm ops, want 0", tc.name, allocs)
		}
	}
	if got := p.mapped.rows[0].regions.live; len(got) != 2 {
		t.Fatalf("extents %+v, want two", got)
	}
}

var checkpointSink *trace.TaskTrace

// BenchmarkCheckpoint measures a checkpoint against table size: n
// mapped objects, one of them touched between checkpoints.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range []int{10, 200, 1000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			tr := New(Config{})
			tr.BeginTask("t")
			op := func(i int, k, class int64) vfd.Op {
				off := int64(n)*64 + int64(i)*4096 + k*1024
				if class == int64(sim.Metadata) {
					off = int64(i) * 64
				}
				return vfd.Op{Wall: time.Unix(0, int64(i)), File: "f.h5", Object: fmt.Sprintf("/d%04d", i),
					Offset: off, Length: 1024, Class: sim.OpClass(class)}
			}
			for i := 0; i < n; i++ {
				tr.volProf.OnEvent(vol.Event{Kind: vol.DatasetWrite, Wall: time.Unix(0, int64(i)),
					Info: vol.ObjectInfo{Name: fmt.Sprintf("/d%04d", i), File: "f.h5", Type: "dataset"}, Bytes: 4096})
				tr.vfdProf.Observe(op(i, 0, int64(sim.Metadata)))
				for k := int64(0); k < 4; k++ {
					tr.vfdProf.Observe(op(i, k, int64(sim.RawData)))
				}
			}
			touch := make([]vfd.Op, n)
			for i := range touch {
				touch[i] = op(i, 1, int64(sim.RawData))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.vfdProf.Observe(touch[i%n])
				checkpointSink = tr.Checkpoint()
			}
		})
	}
}
