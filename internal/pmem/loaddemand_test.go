package pmem_test

import (
	"slices"
	"testing"

	. "mumak/internal/pmem"
	"mumak/internal/trace"
)

// countLog records the counter of every event it sees, loads apart.
type countLog struct{ loads, others []uint64 }

func (l *countLog) OnEvent(ev *Event) {
	if ev.Op == OpLoad {
		l.loads = append(l.loads, ev.ICount)
	} else {
		l.others = append(l.others, ev.ICount)
	}
}

// noLoads is a countLog that declines loads, as Mumak's hooks do.
type noLoads struct{ countLog }

func (*noLoads) WantsLoads() bool { return false }

// A hook that declines loads sees every other event and no load, with
// the counters the engine gave them; the engine still counts the loads.
// A hook without LoadDemand, and a recorder that records loads, see
// every load; a recorder that does not declines them.
func TestLoadDemand(t *testing.T) {
	e := NewEngine(Options{PoolSize: 4096})
	declines, reads := &noLoads{}, &countLog{}
	loads, plain := trace.NewRecorder(), trace.NewRecorder()
	loads.RecordLoads = true
	for _, h := range []Hook{declines, reads, loads, plain} {
		e.AttachHook(h)
	}
	persistSome(e)                  // seven instructions, the fourth a load
	e.Load(make([]byte, 100), 0x30) // the eighth, a load across two lines
	if e.ICount() != 8 || e.Events() != 8 {
		t.Fatalf("ICount %d, Events %d; want 8 and 8: loads must be counted", e.ICount(), e.Events())
	}
	others, wantLoads := []uint64{1, 2, 3, 5, 6, 7}, []uint64{4, 8}
	if len(declines.loads) != 0 || !slices.Equal(declines.others, others) {
		t.Errorf("declining hook saw loads %v and others %v; want none and %v", declines.loads, declines.others, others)
	}
	if !slices.Equal(reads.loads, wantLoads) || !slices.Equal(reads.others, others) {
		t.Errorf("hook without LoadDemand saw loads %v and others %v; want %v and %v", reads.loads, reads.others, wantLoads, others)
	}
	var recorded []uint64
	for _, r := range loads.T.Records {
		if r.Op == OpLoad {
			recorded = append(recorded, r.ICount)
		}
	}
	if loads.T.Len() != 8 || !slices.Equal(recorded, wantLoads) {
		t.Errorf("recorder with RecordLoads kept %d records, loads %v; want 8, loads %v", loads.T.Len(), recorded, wantLoads)
	}
	if plain.T.Len() != 6 {
		t.Errorf("recorder without RecordLoads kept %d records, want 6", plain.T.Len())
	}
}
