package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"mumak/internal/apps"
	"mumak/internal/apps/btree"
	"mumak/internal/core"
	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/trace"
	"mumak/internal/workload"
)

// diffFindings compares two finding slices field by field (order
// included: both front-ends must emit byte-identical reports). ignoreStack
// relaxes the stack comparison for traces that crossed serialisation,
// which drops process-local stack IDs by design.
func diffFindings(t *testing.T, stream, replay []*report.Finding, ignoreStack bool) {
	t.Helper()
	if len(stream) != len(replay) {
		t.Fatalf("streaming emitted %d findings, offline replay %d", len(stream), len(replay))
	}
	for i := range stream {
		s, r := stream[i], replay[i]
		same := s.Kind == r.Kind && s.ICount == r.ICount && s.Addr == r.Addr && s.Detail == r.Detail &&
			(ignoreStack || s.Stack == r.Stack)
		if !same {
			t.Fatalf("finding %d differs:\n  streaming: %+v\n  replay:    %+v", i, *s, *r)
		}
	}
}

// The tentpole property: the streaming analyzer attached to the live
// execution and the offline replay of the recorded trace are the same
// implementation behind two front-ends, so across the whole registry,
// randomised seeds and both persistence domains they must produce
// identical findings — warnings included.
func TestStreamingMatchesOfflineReplay(t *testing.T) {
	for _, eadr := range []bool{false, true} {
		for _, seed := range []int64{11, 4242} {
			w := workload.Generate(workload.Config{N: 300, Seed: seed, Keyspace: 120,
				PutFrac: 2, GetFrac: 1, DeleteFrac: 1})
			for _, name := range apps.Names() {
				name, eadr, seed := name, eadr, seed
				t.Run(fmt.Sprintf("%s/seed=%d/eadr=%v", name, seed, eadr), func(t *testing.T) {
					app, err := apps.New(name, apps.Config{SPT: true, PoolSize: 8 << 20, WithRecovery: true})
					if err != nil {
						t.Fatal(err)
					}
					cfg := core.Config{EADR: eadr, KeepWarnings: true}
					stacks := stack.NewTable()
					rec := trace.NewRecorder()
					analyzer := core.NewAnalyzer(cfg)
					// One execution, both consumers: the recorder
					// materialises the trace, the analyzer streams it.
					_, sig, err := harness.Execute(app, w,
						pmem.Options{Capture: pmem.CapturePersistency, Stacks: stacks},
						rec, analyzer)
					if err != nil {
						t.Fatal(err)
					}
					if sig != nil {
						t.Fatalf("unexpected crash: %v", sig)
					}
					stream := analyzer.Finalize()
					replay := core.AnalyzeTrace(&rec.T, cfg)
					diffFindings(t, stream, replay, false)
					if analyzer.Events() != rec.T.Len() {
						t.Fatalf("analyzer saw %d events, recorder %d", analyzer.Events(), rec.T.Len())
					}
				})
			}
		}
	}
}

// A trace that crossed Encode/ReadTrace drops its process-local stack
// IDs but must otherwise analyse exactly like the live stream.
func TestStreamingMatchesDecodedTrace(t *testing.T) {
	w := workload.Generate(workload.Config{N: 400, Seed: 99, Keyspace: 150})
	app := btree.New(apps.Config{SPT: true, PoolSize: 4 << 20})
	cfg := core.Config{KeepWarnings: true}
	stacks := stack.NewTable()
	rec := trace.NewRecorder()
	analyzer := core.NewAnalyzer(cfg)
	_, sig, err := harness.Execute(app, w,
		pmem.Options{Capture: pmem.CapturePersistency, Stacks: stacks}, rec, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	if sig != nil {
		t.Fatalf("unexpected crash: %v", sig)
	}
	stream := analyzer.Finalize()

	var buf bytes.Buffer
	if err := rec.T.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := core.AnalyzeTrace(decoded, cfg)
	diffFindings(t, stream, replay, true)
	for i, f := range replay {
		if f.Stack != stack.NoID {
			t.Fatalf("finding %d from a decoded trace carries stack %d; want NoID", i, f.Stack)
		}
	}
}
