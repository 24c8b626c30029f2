package semantics

import (
	"sync"
	"testing"
)

func TestMailboxEnterExit(t *testing.T) {
	mb := NewMailbox()
	if mb.Current() != (Context{}) {
		t.Fatal("fresh mailbox not empty")
	}
	exit := mb.Enter(Context{Object: "/g/ds", File: "a.h5", Task: "t1"})
	if cur := mb.Current(); cur.Object != "/g/ds" || cur.File != "a.h5" || cur.Task != "t1" {
		t.Fatalf("Current() = %+v", cur)
	}
	exit()
	if mb.Current() != (Context{}) {
		t.Fatal("exit did not restore empty context")
	}
}

func TestMailboxNesting(t *testing.T) {
	mb := NewMailbox()
	exitOuter := mb.Enter(Context{Object: "/outer"})
	exitInner := mb.Enter(Context{Object: "/outer/attr"})
	if mb.Current().Object != "/outer/attr" {
		t.Fatal("inner context not active")
	}
	exitInner()
	if mb.Current().Object != "/outer" {
		t.Fatal("outer context not restored")
	}
	exitOuter()
	if mb.Current().Object != NoObject {
		t.Fatal("context not cleared")
	}
}

func TestMailboxExitUnderflow(t *testing.T) {
	mb := NewMailbox()
	exit := mb.Enter(Context{Object: "/x"})
	exit()
	exit() // double exit must not panic and must leave context empty
	if mb.Current() != (Context{}) {
		t.Fatal("double exit corrupted context")
	}
}

func TestMailboxSetTask(t *testing.T) {
	mb := NewMailbox()
	mb.SetTask("stage1")
	if mb.Current().Task != "stage1" {
		t.Fatal("SetTask lost")
	}
	exit := mb.Enter(Context{Object: "/d", Task: "stage1"})
	mb.SetTask("stage2")
	if mb.Current().Task != "stage2" {
		t.Fatal("SetTask inside Enter lost")
	}
	exit()
}

func TestMailboxConcurrency(t *testing.T) {
	// The mailbox must be race-free under concurrent stamping; run with
	// -race in CI to check.
	mb := NewMailbox()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				exit := mb.Enter(Context{Object: "/d"})
				_ = mb.Current()
				exit()
			}
		}()
	}
	wg.Wait()
}

// TestMailboxEnterNoAlloc: the object layer stamps the mailbox around
// every access, so a stamp and its restore must not allocate.
func TestMailboxEnterNoAlloc(t *testing.T) {
	mb := NewMailbox()
	ctx := Context{Object: "/g/ds", File: "a.h5", Task: "t1"}
	mb.Enter(ctx)() // grow the stack once
	if n := testing.AllocsPerRun(1000, func() { mb.Enter(ctx)() }); n != 0 {
		t.Fatalf("Enter(ctx)() allocates %v times per call, want 0", n)
	}
}
