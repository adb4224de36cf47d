// Package agamotto reimplements Agamotto (Neal et al., OSDI'20):
// symbolic-execution-style state-space exploration with universal bug
// oracles. The tool generates its own operation sequences (it cannot run
// a user-provided workload, Table 3), explores states in an order that
// prioritises paths with many PM accesses — the heuristic that lets it
// find a significant portion of bugs early — and applies two universal
// oracles (unpersisted data, redundant flushes/fences) plus a PMDK
// transaction oracle fed by undo-log annotations.
//
// In the original every frontier state retains a full copy of the pool,
// as a KLEE state does, which is where the 3.8-5.8x memory overhead of
// Table 2 comes from. Here a state holds a copy-on-write image that
// shares pages with its parent, and the frontier cap under a memory
// budget still counts each state as a full pool (see package tools).
// Exploration is exhaustive in the limit and is in practice bounded by
// the wall-clock budget, like the original's 12-hour runs.
package agamotto

import (
	"container/heap"
	"errors"
	"maps"

	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/tools"
	"mumak/internal/workload"
)

// ErrNeedsKV marks a target that does not expose the key-value driver
// interface the exploration alphabet is built from.
var ErrNeedsKV = errors.New("agamotto: target does not expose an explorable operation alphabet")

// Exploration parameters.
const (
	// alphabet is the number of distinct keys in the generated
	// operation alphabet.
	alphabet = 3
	// maxDepth bounds the explored operation sequences (the artifact's
	// configuration; raising it grows the state space exponentially).
	maxDepth = 4
	// maxStates caps the live frontier, KLEE-style: when full, the
	// lowest-priority state is pruned rather than exhausting memory.
	maxStates = 64
)

// Tool is the Agamotto reimplementation.
type Tool struct{}

// New constructs the tool.
func New() *Tool { return &Tool{} }

// Name implements tools.Tool.
func (t *Tool) Name() string { return "Agamotto" }

// state is one node of the exploration tree.
type state struct {
	img   *pmem.Image
	depth int
	// score prioritises PM-access-heavy paths.
	score uint64
	// unpersisted carries the set of store addresses (8-byte grains)
	// written but not yet durable along this path.
	unpersisted map[uint64]uint64 // grain -> icount of the store
	// lineClean carries per-line write-back state along the path for
	// the redundant-flush oracle.
	lineClean map[uint64]bool
	seq       string
}

// stateQueue is a max-heap on score.
type stateQueue []*state

func (q stateQueue) Len() int           { return len(q) }
func (q stateQueue) Less(i, j int) bool { return q[i].score > q[j].score }
func (q stateQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *stateQueue) Push(x any)        { *q = append(*q, x.(*state)) }
func (q *stateQueue) Pop() any          { old := *q; n := len(old); s := old[n-1]; *q = old[:n-1]; return s }

// Analyze implements tools.Tool. The workload argument is ignored:
// Agamotto drives the target itself.
func (t *Tool) Analyze(app harness.Application, _ workload.Workload, cfg tools.Config) (*tools.Result, error) {
	kvApp, ok := app.(harness.KVApplication)
	if !ok {
		return nil, ErrNeedsKV
	}
	res, expired := tools.Begin(t.Name(), app, cfg)

	// Root state: the freshly set-up pool.
	rootEng := pmem.NewEngine(pmem.Options{PoolSize: app.PoolSize()})
	if err := app.Setup(rootEng); err != nil {
		return nil, err
	}
	res.EngineEvents += rootEng.Events()
	queue := &stateQueue{{img: rootEng.PrefixImage(), unpersisted: map[uint64]uint64{}, lineClean: map[uint64]bool{}}}
	heap.Init(queue)

	frontier := maxStates
	if cfg.MemBudget > 0 {
		// Respect the memory budget by shrinking the frontier, each
		// live state counted as a full pool (see package tools).
		if cap := int(cfg.MemBudget / uint64(app.PoolSize()) / 2); cap > 0 && cap < frontier {
			frontier = cap
		}
	}
	for queue.Len() > 0 {
		if expired() {
			res.TimedOut = true
			break
		}
		cur := heap.Pop(queue).(*state)
		if cur.depth >= maxDepth {
			continue
		}
		for _, op := range t.ops() {
			next, err := t.expand(kvApp, cur, op, res)
			if err != nil {
				continue
			}
			heap.Push(queue, next)
			if queue.Len() > frontier {
				// Prune the lowest-priority state (KLEE state cap):
				// the heap keeps high scores at the top, so scan for
				// the minimum.
				minIdx := 0
				for i := 1; i < queue.Len(); i++ {
					if (*queue)[i].score < (*queue)[minIdx].score {
						minIdx = i
					}
				}
				heap.Remove(queue, minIdx)
			}
		}
	}
	return res, nil
}

// op is one alphabet operation.
type op struct {
	kind workload.Kind
	key  uint64
}

func (t *Tool) ops() []op {
	out := make([]op, 0, alphabet*2+1)
	for k := 0; k < alphabet; k++ {
		out = append(out, op{kind: workload.Put, key: uint64(k)})
	}
	for k := 0; k < alphabet; k++ {
		out = append(out, op{kind: workload.Delete, key: uint64(k)})
	}
	out = append(out, op{kind: workload.Get, key: 0})
	return out
}

// expand executes one operation from a state, applying the universal
// oracles to the instruction stream it produces.
func (t *Tool) expand(app harness.KVApplication, cur *state, o op, res *tools.Result) (*state, error) {
	eng := pmem.NewEngineFromImage(pmem.Options{}, cur.img)
	orc := &oracles{rep: res.Report, unpersisted: maps.Clone(cur.unpersisted), lineClean: maps.Clone(cur.lineClean)}
	eng.AttachHook(orc)
	kv, err := app.Open(eng)
	if err != nil {
		return nil, err
	}
	switch o.kind {
	case workload.Put:
		err = kv.Put(o.key, o.key*1000+uint64(cur.depth))
	case workload.Get:
		_, _, err = kv.Get(o.key)
	case workload.Delete:
		err = kv.Delete(o.key)
	}
	res.EngineEvents += eng.Events()
	res.Explored++
	if err != nil {
		return nil, err
	}
	orc.finish()
	return &state{
		img:         eng.PrefixImage(),
		depth:       cur.depth + 1,
		score:       orc.pmAccesses,
		unpersisted: orc.unpersisted,
		lineClean:   orc.lineClean,
		seq:         cur.seq + o.kind.String(),
	}, nil
}

// oracles implements Agamotto's universal and PMDK-transaction oracles
// over one operation's instruction stream.
type oracles struct {
	rep         *report.Report
	unpersisted map[uint64]uint64
	pmAccesses  uint64
	flushesSF   int
	ntSF        int
	inTx        bool
	txRanges    [][2]uint64
	internal    [][2]uint64
	lineClean   map[uint64]bool
}

const grain = 8

// OnEvent implements pmem.Hook.
func (o *oracles) OnEvent(ev *pmem.Event) {
	o.pmAccesses++
	if o.lineClean == nil {
		o.lineClean = map[uint64]bool{}
	}
	switch ev.Op.Kind() {
	case pmem.KindStore:
		for g := ev.Addr / grain; g <= (ev.Addr+uint64(ev.Size)-1)/grain; g++ {
			o.unpersisted[g] = ev.ICount
		}
		last := (ev.Addr + uint64(ev.Size) - 1) &^ (pmem.CacheLineSize - 1)
		for base := ev.Addr &^ (pmem.CacheLineSize - 1); base <= last; base += pmem.CacheLineSize {
			o.lineClean[base] = false
		}
		if o.inTx && ev.Op != pmem.OpNTStore && !within(o.internal, ev.Addr, ev.Size) && !within(o.txRanges, ev.Addr, ev.Size) {
			// The PMDK transaction oracle (Table 1: atomicity for
			// PMDK TXs): a store inside a transaction to an unlogged
			// range can never roll back.
			o.rep.Add(report.Finding{
				Kind:   report.CrashConsistency,
				ICount: ev.ICount,
				Addr:   ev.Addr,
				Detail: "transactional store to a range never added to the undo log",
			})
		}
	case pmem.KindFlush:
		base := ev.Addr &^ (pmem.CacheLineSize - 1)
		if clean, seen := o.lineClean[base]; seen && clean {
			o.rep.Add(report.Finding{
				Kind:   report.RedundantFlush,
				ICount: ev.ICount,
				Addr:   ev.Addr,
				Detail: "universal oracle: flush of an unmodified line",
			})
		}
		for g := base / grain; g < (base+pmem.CacheLineSize)/grain; g++ {
			delete(o.unpersisted, g)
		}
		o.lineClean[base] = true
		if ev.Op != pmem.OpCLFlush {
			o.flushesSF++
		}
	case pmem.KindFence:
		if ev.Op != pmem.OpRMW && o.flushesSF == 0 && o.ntSF == 0 {
			o.rep.Add(report.Finding{
				Kind:   report.RedundantFence,
				ICount: ev.ICount,
				Detail: "universal oracle: fence with nothing to order",
			})
		}
		o.flushesSF, o.ntSF = 0, 0
	}
	if ev.Op == pmem.OpNTStore {
		o.ntSF++
		for g := ev.Addr / grain; g <= (ev.Addr+uint64(ev.Size)-1)/grain; g++ {
			delete(o.unpersisted, g)
		}
	}
}

// OnAnnotation implements pmem.AnnotationObserver.
func (o *oracles) OnAnnotation(a *pmem.Annotation) {
	switch a.Kind {
	case pmem.AnnTxBegin:
		o.inTx = true
		o.txRanges = o.txRanges[:0]
	case pmem.AnnTxAdd:
		o.txRanges = append(o.txRanges, [2]uint64{a.Addr, uint64(a.Size)})
	case pmem.AnnTxEnd:
		o.inTx = false
	case pmem.AnnNoDrain:
		o.internal = append(o.internal, [2]uint64{a.Addr, uint64(a.Size)})
	}
}

// finish applies the end-of-path durability oracle: data still
// unpersisted when the operation returns. One representative per path
// keeps reports readable: the grain stored first, ties broken by
// address, so the choice never depends on map order.
func (o *oracles) finish() {
	if len(o.unpersisted) == 0 {
		return
	}
	var g0, ic0 uint64
	first := true
	for g, ic := range o.unpersisted {
		if first || ic < ic0 || ic == ic0 && g < g0 {
			g0, ic0, first = g, ic, false
		}
	}
	o.rep.Add(report.Finding{
		Kind:   report.Durability,
		ICount: ic0,
		Addr:   g0 * grain,
		Detail: "universal oracle: data not persisted at operation completion",
	})
}

func within(ranges [][2]uint64, addr uint64, size int) bool {
	for _, r := range ranges {
		if addr >= r[0] && addr+uint64(size) <= r[0]+r[1] {
			return true
		}
	}
	return false
}

var _ tools.Tool = (*Tool)(nil)
var _ pmem.AnnotationObserver = (*oracles)(nil)
