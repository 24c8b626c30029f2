// Package semantics implements the join channel between DaYu's two
// profiling layers. In the paper the VOL and VFD plugins are separate
// HDF5 plugins that cannot call each other, so DaYu passes the "current
// data object" through a shared-memory segment; here the same contract
// is an in-process mailbox the object layer stamps before issuing I/O
// and the file-driver profiler reads when recording each operation.
package semantics

import "sync"

// NoObject is recorded when I/O happens outside any data-object access,
// e.g. superblock writes during file open.
const NoObject = ""

// Context describes the data object on whose behalf I/O is currently
// being issued.
type Context struct {
	// Object is the full object name, e.g. "/group/dataset".
	Object string
	// File is the file name the object belongs to.
	File string
	// Task is the workflow task currently executing.
	Task string
}

// Mailbox carries the current-object context from the object layer (VOL)
// to the file-driver layer (VFD). It is safe for concurrent use; each
// simulated process owns one mailbox, mirroring the per-process shared
// memory segment in the paper.
type Mailbox struct {
	mu  sync.Mutex
	ctx Context
	// depth tracks nested object stamps so an attribute read inside a
	// dataset access restores the outer dataset context on exit.
	stack []Context
	// exitFn is exit bound once, so Enter does not allocate a method
	// value per stamp.
	exitFn func()
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox { return &Mailbox{} }

// Enter pushes ctx as the current object context and returns a function
// that restores the previous context. Typical use:
//
//	defer mb.Enter(semantics.Context{Object: name, File: f, Task: t})()
func (m *Mailbox) Enter(ctx Context) func() {
	m.mu.Lock()
	m.stack = append(m.stack, m.ctx)
	m.ctx = ctx
	if m.exitFn == nil {
		m.exitFn = m.exit
	}
	exit := m.exitFn
	m.mu.Unlock()
	return exit
}

func (m *Mailbox) exit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.stack); n > 0 {
		m.ctx = m.stack[n-1]
		m.stack = m.stack[:n-1]
	} else {
		m.ctx = Context{}
	}
}

// Current returns the context of the object currently performing I/O.
func (m *Mailbox) Current() Context {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ctx
}

// SetTask updates only the task field of the current context; the
// workflow launcher calls this when a task starts (the paper notes the
// launcher must inform DaYu of the current task).
func (m *Mailbox) SetTask(task string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctx.Task = task
}
