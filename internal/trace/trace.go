// Package trace records and replays PM access traces.
//
// A Trace is the by-product 6 of the Mumak pipeline (Fig 1): the ordered
// list of stores, flushes and fences observed during the workload run,
// identified by instruction counter, together with the pool image the
// run started from. Mumak itself streams its trace analysis and never
// materialises one; the baseline tools record traces in memory and use
// the replay machinery here to build crash images under weaker
// persistency assumptions (arbitrary subsets of unfenced write-backs),
// which is the search space Yat and Witcher explore. Traces have no
// file format.
package trace

import "mumak/internal/pmem"

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
}

// Trace is an ordered PM access trace.
type Trace struct {
	// Records holds the instruction stream in execution order.
	Records []Record

	payload []byte
	// start is the pool image the first record applies to: the
	// recording engine's image when the Recorder was attached.
	start *pmem.Image
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
// Attached to an engine, it freezes the engine's image as the trace's
// start (pmem.EngineObserver), so a recorder attached after Setup
// records a trace that starts from the pool Setup left.
type Recorder struct {
	// T is the trace under construction.
	T Trace
	// RecordLoads includes load events when set; Mumak's analysis does
	// not need them, so they default to off. The engine asks for it once,
	// at attachment (pmem.LoadDemand), so set it before attaching.
	RecordLoads bool
}

// NewRecorder returns a Recorder ready to attach to an engine.
func NewRecorder() *Recorder {
	return &Recorder{T: Trace{payload: make([]byte, 0, 1<<16)}}
}

// ObserveEngine implements pmem.EngineObserver: the trace starts from
// e's image at attachment, frozen in O(1).
func (rec *Recorder) ObserveEngine(e *pmem.Engine) { rec.T.start = e.PrefixImage() }

// WantsLoads implements pmem.LoadDemand: the recorder reads loads only
// when it records them.
func (rec *Recorder) WantsLoads() bool { return rec.RecordLoads }

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
	}
	if len(ev.Data) > 0 {
		r.Data = int64(len(rec.T.payload))
		rec.T.payload = append(rec.T.payload, ev.Data...)
	}
	rec.T.Records = append(rec.T.Records, r)
}
