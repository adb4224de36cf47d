package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mumak/internal/apps/btree"
	"mumak/internal/campaign"
	"mumak/internal/harness"
	"mumak/internal/report"
	"mumak/internal/stack"
	"mumak/internal/workload"
)

// prefixStop is one way a campaign can stop. run executes the campaign
// with the given worker count, journaled, and returns its result (Tree
// set) and the journal directory; check asserts that the campaign
// stopped the way the case intends.
type prefixStop struct {
	name string
	// identical marks stops whose stop point is deterministic, so the
	// serial and the parallel artifact must be byte-identical.
	identical bool
	run       func(t *testing.T, workers int) (*Result, string)
	check     func(t *testing.T, res *Result)
}

// TestProgressIsFirstOccurrencePrefix: however a campaign stops, what it
// consumed is the first Injections + SkippedFailurePoints leaves of
// LeavesByICount. The journal holds exactly those leaves in that order,
// the artifact campaign.SaveTree writes marks exactly them visited, and
// campaign.LoadTree returns their count. Where the stop point is deterministic,
// the serial and parallel artifacts are byte-identical too.
func TestProgressIsFirstOccurrencePrefix(t *testing.T) {
	mk := func() harness.Application { return btree.New(cfgSeeded(btree.BugCountOutsideTx)) }
	w := workload.Generate(workload.Config{N: 150, Seed: 21, Keyspace: 50})
	analyze := func(cfg Config) func(t *testing.T, workers int) (*Result, string) {
		return func(t *testing.T, workers int) (*Result, string) {
			return journaled(t, func(j *campaign.Journal) *Result {
				c := cfg
				c.Workers, c.Journal = workers, j
				res, err := Analyze(mk(), w, c)
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
		}
	}
	interrupt := make(chan struct{})
	close(interrupt)

	stops := []prefixStop{
		{
			name: "completion", identical: true, run: analyze(Config{}),
			check: func(t *testing.T, res *Result) {
				if res.TimedOut || res.Interrupted || consumedOf(res) != res.Tree.Len() {
					t.Fatalf("campaign stopped early: consumed %d of %d", consumedOf(res), res.Tree.Len())
				}
			},
		},
		{
			// Stack mode re-executes the workload per replay, so the
			// campaign outlasts the budget and the deadline cuts it.
			name: "budget", run: analyze(Config{StackMode: true, Budget: 30 * time.Millisecond}),
			check: func(t *testing.T, res *Result) {
				if !res.TimedOut {
					t.Log("campaign finished inside the budget")
				}
			},
		},
		{
			name: "interrupt", run: analyze(Config{Interrupt: interrupt}),
			check: func(t *testing.T, res *Result) {
				if !res.Interrupted || consumedOf(res) != 0 {
					t.Fatalf("pre-closed interrupt: interrupted=%v, consumed %d", res.Interrupted, consumedOf(res))
				}
			},
		},
		{
			// Driven like TestStackModeAbortsAfterNoProgress: every
			// stack-mode replay of a healthy tree fails.
			name: "abort", identical: true,
			run: func(t *testing.T, workers int) (*Result, string) {
				app, w := testTarget(), testWorkload()
				return journaled(t, func(j *campaign.Journal) *Result {
					tree, stacks := buildTree(t, app, w)
					rep := &report.Report{Target: "test", Tool: "test", Stacks: stacks}
					res := &Result{Report: rep, Tree: tree}
					cfg := Config{StackMode: true, Workers: workers, Journal: j}
					if _, err := injectAll(failingApp{app}, w, tree, cfg, rep, res, time.Now().Add(30*time.Second)); err != nil {
						t.Fatal(err)
					}
					return res
				})
			},
			check: func(t *testing.T, res *Result) {
				if !res.InjectionAborted || consumedOf(res) != maxNoProgress {
					t.Fatalf("aborted=%v after %d consumed failure points, want an abort after %d",
						res.InjectionAborted, consumedOf(res), maxNoProgress)
				}
			},
		},
		{
			name: "resume", identical: true,
			run: func(t *testing.T, workers int) (*Result, string) {
				_, dir := analyze(Config{})(t, workers)
				log := filepath.Join(dir, campaign.JournalFile)
				fi, err := os.Stat(log)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(log, fi.Size()/2); err != nil {
					t.Fatal(err)
				}
				st, err := campaign.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				j, err := st.Reopen()
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				res, err := Analyze(mk(), w, Config{Workers: workers, Journal: j, Resume: st})
				if err != nil {
					t.Fatal(err)
				}
				return res, dir
			},
			check: func(t *testing.T, res *Result) {
				if res.ResumedFailurePoints == 0 || consumedOf(res) != res.Tree.Len() {
					t.Fatalf("resume folded %d verdicts and consumed %d of %d failure points",
						res.ResumedFailurePoints, consumedOf(res), res.Tree.Len())
				}
			},
		},
	}
	for _, stop := range stops {
		t.Run(stop.name, func(t *testing.T) {
			var artifacts [][]byte
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					res, dir := stop.run(t, workers)
					stop.check(t, res)
					artifacts = append(artifacts, checkPrefix(t, res, dir))
				})
			}
			if stop.identical && len(artifacts) == 2 && !bytes.Equal(artifacts[0], artifacts[1]) {
				t.Error("serial and parallel campaigns wrote different artifacts")
			}
		})
	}
}

// consumedOf is the length of a campaign's consumed prefix.
func consumedOf(res *Result) int { return res.Injections + res.SkippedFailurePoints }

// journaled runs a campaign with a fresh journal and returns its result
// and the journal directory.
func journaled(t *testing.T, run func(*campaign.Journal) *Result) (*Result, string) {
	t.Helper()
	dir := t.TempDir()
	j, err := campaign.Create(dir, campaign.Meta{Target: "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	res := run(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return res, dir
}

// checkPrefix asserts that the journal in dir and the artifact of
// res.Tree both hold exactly the first Injections + SkippedFailurePoints
// leaves of LeavesByICount, and returns the artifact.
func checkPrefix(t *testing.T, res *Result, dir string) []byte {
	t.Helper()
	order := res.Tree.LeavesByICount()
	consumed := consumedOf(res)
	st, err := campaign.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != consumed {
		t.Fatalf("journal holds %d records, the campaign consumed %d failure points", len(st.Records), consumed)
	}
	for i, rec := range st.Records {
		if rec.LeafICount != order[i].FirstICount {
			t.Fatalf("journal record %d is the failure point at instruction %d, the prefix's is at %d",
				i, rec.LeafICount, order[i].FirstICount)
		}
	}

	artifacts := t.TempDir()
	if err := campaign.SaveTree(artifacts, res.Tree, consumed); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(artifacts, campaign.TreeFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Read the visited marks straight from the gob payload behind the
	// 24-byte artifact header; gob matches the fields by name.
	var wire struct {
		Leaves []struct {
			FirstICount uint64
			Visited     bool
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(data[24:])).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	inPrefix := make(map[uint64]bool, consumed)
	for _, l := range order[:consumed] {
		inPrefix[l.FirstICount] = true
	}
	for _, l := range wire.Leaves {
		if l.Visited != inPrefix[l.FirstICount] {
			t.Fatalf("artifact marks the failure point at instruction %d visited=%v, want %v",
				l.FirstICount, l.Visited, inPrefix[l.FirstICount])
		}
	}

	restored, visited, err := campaign.LoadTree(path, stack.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if visited != consumed || restored.Len() != len(order) {
		t.Fatalf("LoadTree: %d of %d failure points visited, want %d of %d",
			visited, restored.Len(), consumed, len(order))
	}
	return data
}
