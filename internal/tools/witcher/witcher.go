// Package witcher reimplements Witcher (Fu et al., SOSP'21): systematic
// crash-consistency testing for PM key-value stores. From one traced
// execution it infers likely ordering/atomicity invariants (one per
// unique operation-kind x persist-point x racing-write-back triple),
// generates PM crash images that violate them — images that do NOT
// respect program order, the space Mumak deliberately skips — and
// applies output-equivalence checking: the recovered store must answer
// reads like the pre-crash or post-crash oracle state.
//
// The cost and ergonomics profile follows the original (§6.1, Table 3):
// it needs a key-value driver (it cannot run arbitrary targets), it
// pre-generates batches of crash images and fans them out across all
// cores, and it reports every violating image without duplicate
// filtering. The original's images are full pool copies, which is what
// exhausted 256 GB of memory on the 150 k-op workloads; here the images
// share pages, and each is counted at full pool size against the memory
// budget instead (see package tools).
package witcher

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"

	"mumak/internal/harness"
	"mumak/internal/oracle"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/tools"
	"mumak/internal/trace"
	"mumak/internal/workload"
)

// ErrNeedsKV marks a target without the key-value driver Witcher needs.
var ErrNeedsKV = errors.New("witcher: target does not implement the key-value driver interface")

// Tool is the Witcher reimplementation.
type Tool struct{}

// New constructs the tool.
func New() *Tool { return &Tool{} }

// Name implements tools.Tool.
func (t *Tool) Name() string { return "Witcher" }

// candidate is one crash image to test: a fence position and the single
// racing write-back unit to drop (or keep exclusively).
type candidate struct {
	fenceRec int
	unitIdx  int
	keepOnly bool
	opIdx    int
}

// Analyze implements tools.Tool.
func (t *Tool) Analyze(app harness.Application, w workload.Workload, cfg tools.Config) (*tools.Result, error) {
	kvApp, ok := app.(harness.KVApplication)
	if !ok {
		return nil, ErrNeedsKV
	}
	res, expired := tools.Begin(t.Name(), app, cfg)

	// Phase 1: drive the workload through the KV driver, tracing PM
	// accesses and the record range of every operation.
	eng := pmem.NewEngine(pmem.Options{PoolSize: app.PoolSize()})
	rec := trace.NewRecorder()
	eng.AttachHook(rec)
	if err := app.Setup(eng); err != nil {
		return nil, err
	}
	kv, err := kvApp.Open(eng)
	if err != nil {
		return nil, err
	}
	opStart := make([]int, len(w.Ops)+1)
	models := make([]map[uint64]uint64, len(w.Ops)+1)
	model := map[uint64]uint64{}
	models[0] = maps.Clone(model)
	for i, op := range w.Ops {
		opStart[i] = rec.T.Len()
		switch op.Kind {
		case workload.Put:
			err = kv.Put(op.Key, op.Val)
			model[op.Key] = op.Val
		case workload.Get:
			_, _, err = kv.Get(op.Key)
		case workload.Delete:
			err = kv.Delete(op.Key)
			delete(model, op.Key)
		}
		if err != nil {
			return nil, fmt.Errorf("witcher: driver op %d: %w", i, err)
		}
		models[i+1] = maps.Clone(model)
	}
	opStart[len(w.Ops)] = rec.T.Len()
	res.EngineEvents += eng.Events()

	// Phase 2: infer likely invariants. Every unique (operation kind,
	// persist point within the operation, racing unit index) triple
	// yields one candidate crash image violating it.
	tr := &rec.T
	cursor := trace.NewCursor(tr)
	seen := map[[3]int]bool{}
	var candidates []candidate
	opIdx := 0
	fenceInOp := 0
	for i := range tr.Records {
		for opIdx < len(w.Ops)-1 && i >= opStart[opIdx+1] {
			opIdx++
			fenceInOp = 0
		}
		r := &tr.Records[i]
		if r.Op.Kind() != pmem.KindFence {
			continue
		}
		fenceInOp++
		cursor.SeekTo(i)
		uncertain := cursor.Uncertain()
		if len(uncertain) < 2 {
			continue
		}
		kind := int(w.Ops[opIdx].Kind)
		for u := range uncertain {
			key := [3]int{kind*1000 + fenceInOp, u, 0}
			if !seen[key] {
				seen[key] = true
				candidates = append(candidates, candidate{fenceRec: i, unitIdx: u, opIdx: opIdx})
			}
			key[2] = 1
			if !seen[key] {
				seen[key] = true
				candidates = append(candidates, candidate{fenceRec: i, unitIdx: u, keepOnly: true, opIdx: opIdx})
			}
		}
	}

	// Phase 3: pre-generate the crash images in batches and check them
	// in parallel with output equivalence — the memory-hungry fan-out.
	var imgBytes atomic.Uint64
	batch := make([]*pmem.Image, len(candidates))
	genCursor := trace.NewCursor(tr)
	lastPos := 0
	for ci, c := range candidates {
		if expired() {
			res.TimedOut = true
			break
		}
		if c.fenceRec < lastPos {
			genCursor = trace.NewCursor(tr)
			lastPos = 0
		}
		genCursor.SeekTo(c.fenceRec)
		lastPos = c.fenceRec
		uncertain := genCursor.Uncertain()
		if c.unitIdx >= len(uncertain) {
			continue
		}
		img := genCursor.Materialize(uncertain, func(i int) bool {
			if c.keepOnly {
				return i == c.unitIdx
			}
			return i != c.unitIdx
		})
		imgBytes.Add(uint64(img.Len()))
		if cfg.MemBudget > 0 && imgBytes.Load() > cfg.MemBudget {
			res.OOM = true
			break
		}
		batch[ci] = img
	}

	if !res.OOM && !res.TimedOut {
		// Each checker stores its finding at its candidate's index, and
		// the findings are added in candidate order once all are done,
		// so the report does not depend on which checker finishes first.
		findings := make([]*report.Finding, len(batch))
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.NumCPU())
		for ci := range batch {
			img := batch[ci]
			if img == nil {
				continue
			}
			c := candidates[ci]
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				finding, bad := t.check(kvApp, img, models[c.opIdx], models[c.opIdx+1], tr.Records[c.fenceRec].ICount)
				if bad {
					findings[ci] = &finding
				}
			}()
		}
		wg.Wait()
		for _, f := range findings {
			if f != nil {
				res.Report.Add(*f)
			}
		}
	}
	res.Explored = len(candidates)
	return res, nil
}

// check runs recovery and output-equivalence on one crash image: the
// recovered store must match the oracle state before or after the
// interrupted operation.
func (t *Tool) check(app harness.KVApplication, img *pmem.Image, pre, post map[uint64]uint64, icount uint64) (report.Finding, bool) {
	out := oracle.Check(app, img)
	if !out.Consistent() {
		return report.Finding{
			Kind:   report.CrashConsistency,
			ICount: icount,
			Detail: "crash image violating a likely invariant is unrecoverable: " + out.Describe(),
		}, true
	}
	kv, err := app.Open(out.Engine)
	if err != nil {
		// An unopenable pool is acceptable only when an empty store is
		// an acceptable oracle state (a crash during initialisation).
		if len(pre) == 0 || len(post) == 0 {
			return report.Finding{}, false
		}
		return report.Finding{Kind: report.CrashConsistency, ICount: icount,
			Detail: "recovered store cannot be reopened: " + err.Error()}, true
	}
	matches := func(m map[uint64]uint64) bool {
		for k, v := range m {
			got, ok, err := kv.Get(k)
			if err != nil || !ok || got != v {
				return false
			}
		}
		return true
	}
	if matches(pre) || matches(post) {
		return report.Finding{}, false
	}
	return report.Finding{
		Kind:   report.CrashConsistency,
		ICount: icount,
		Detail: "output divergence: the recovered store matches neither the pre- nor post-operation oracle state",
	}, true
}

var _ tools.Tool = (*Tool)(nil)
