// Package trace records and replays PM access traces.
//
// A Trace is the by-product 6 of the Mumak pipeline (Fig 1): the ordered
// list of stores, flushes and fences observed during the workload run,
// identified by instruction counter. Mumak's trace-analysis phase
// consumes it with a single pass; the baseline tools additionally use the
// replay machinery here to build crash images under weaker persistency
// assumptions (arbitrary subsets of unfenced write-backs), which is the
// search space Yat and Witcher explore.
package trace

import (
	"mumak/internal/pmem"
	"mumak/internal/stack"
)

// Record is one traced instruction, stored compactly (§5: instruction
// type, argument(s), instruction counter).
type Record struct {
	// ICount is the engine instruction counter of the event.
	ICount uint64
	// Op is the instruction opcode.
	Op pmem.Opcode
	// Addr is the affected address (line base for flushes).
	Addr uint64
	// Size is the number of bytes affected.
	Size int32
	// Data indexes the payload of store events within the trace's
	// shared buffer; -1 when the record carries no payload.
	Data int64
	// Stack is the captured call stack, or stack.NoID.
	Stack stack.ID
}

// Trace is an ordered PM access trace plus the annotations emitted by the
// PM library during the same execution.
type Trace struct {
	// Records holds the instruction stream in execution order.
	Records []Record
	// Anns holds library annotations in execution order.
	Anns []pmem.Annotation

	payload []byte
}

// Payload returns the stored bytes of a store record, or nil.
func (t *Trace) Payload(r *Record) []byte {
	if r.Data < 0 {
		return nil
	}
	return t.payload[r.Data : r.Data+int64(r.Size)]
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Recorder is a pmem.Hook that appends every observed event to a Trace.
type Recorder struct {
	// T is the trace under construction.
	T Trace
	// RecordLoads includes load events when set; Mumak's analysis does
	// not need them, so they default to off.
	RecordLoads bool
}

// NewRecorder returns a Recorder ready to attach to an engine.
func NewRecorder() *Recorder {
	return &Recorder{T: Trace{payload: make([]byte, 0, 1<<16)}}
}

// OnEvent implements pmem.Hook.
func (rec *Recorder) OnEvent(ev *pmem.Event) {
	if ev.Op == pmem.OpLoad && !rec.RecordLoads {
		return
	}
	r := Record{
		ICount: ev.ICount,
		Op:     ev.Op,
		Addr:   ev.Addr,
		Size:   int32(ev.Size),
		Data:   -1,
		Stack:  ev.Stack,
	}
	if len(ev.Data) > 0 {
		r.Data = int64(len(rec.T.payload))
		rec.T.payload = append(rec.T.payload, ev.Data...)
	}
	rec.T.Records = append(rec.T.Records, r)
}

// OnAnnotation implements pmem.AnnotationObserver.
func (rec *Recorder) OnAnnotation(a *pmem.Annotation) {
	rec.T.Anns = append(rec.T.Anns, *a)
}
