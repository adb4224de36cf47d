// Command mumak is the analysis frontend (the paper's Bash driver): it
// takes a registered target "binary" and a workload description, runs
// the full Mumak pipeline — fault injection with the recovery oracle
// plus single-pass trace analysis — and prints the merged bug report.
//
// Example:
//
//	mumak -target btree -ops 15000 -spt
//	mumak -target montage-hashtable -montage-buggy
//	mumak -list
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"mumak/internal/apps"
	"mumak/internal/apps/apptest/imagedup"
	"mumak/internal/apps/apptest/misbehave"
	_ "mumak/internal/apps/art"
	_ "mumak/internal/apps/btree"
	_ "mumak/internal/apps/cceh"
	_ "mumak/internal/apps/fastfair"
	_ "mumak/internal/apps/hashatomic"
	_ "mumak/internal/apps/levelhash"
	_ "mumak/internal/apps/montageht"
	_ "mumak/internal/apps/pmemkv"
	_ "mumak/internal/apps/rbtree"
	_ "mumak/internal/apps/redis"
	_ "mumak/internal/apps/rocksdb"
	_ "mumak/internal/apps/wort"
	"mumak/internal/bugs"
	"mumak/internal/campaign"
	"mumak/internal/core"
	"mumak/internal/fpt"
	"mumak/internal/harness"
	"mumak/internal/pmdk"
	"mumak/internal/workload"
)

func main() {
	var (
		target     = flag.String("target", "btree", "application under test (see -list)")
		list       = flag.Bool("list", false, "list registered targets and exit")
		ops        = flag.Int("ops", 150000, "workload size (the paper's scale; the online analyzer keeps memory flat and -budget bounds the wall clock)")
		seed       = flag.Int64("seed", 42, "workload seed")
		spt        = flag.Bool("spt", false, "single put per transaction variant")
		pmdkVer    = flag.String("pmdk", "1.6", "PMDK version for PMDK-based targets: 1.6, 1.8, 1.12")
		warnings   = flag.Bool("warnings", false, "include trace-analysis warnings in the report")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON (CI-pipeline friendly)")
		eadr       = flag.Bool("eadr", false, "analyse under an eADR persistence domain (§4.3)")
		storeGran  = flag.Bool("store-granularity", false, "inject at every store instead of persistency instructions (ablation)")
		stackMode  = flag.Bool("stack-mode", false, "match failure points by call stack instead of instruction counter, re-executing the target once; every failure point is judged on the image that re-execution freezes, and no verdict is reused")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent recovery checks, in counter and stack mode (1 = serial); counter mode runs N-1 of them (at least 1) beside its instrumented run, and stack mode's one re-execution runs beside them")
		budget     = flag.Duration("budget", 10*time.Minute, "analysis wall-clock budget (the paper uses 12h)")
		seedBugs   = flag.String("seed-bugs", "", "comma-separated seeded bug IDs to plant (see internal/bugs)")
		montageBug = flag.Bool("montage-buggy", false, "enable the two historical Montage bugs")
		recovery   = flag.Bool("with-recovery", true, "use the full recovery procedure for targets that ship without one")
		poolMB     = flag.Int("pool-mb", 64, "simulated PM pool size in MiB")
		printTree  = flag.Bool("print-tree", false, "render the failure point tree (the Fig 2 view)")
		hangBudget = flag.Uint64("hang-budget", 0, "PM events one execution may emit before the hang watchdog kills it (0 = default)")
		recTimeout = flag.Duration("recovery-timeout", 0, "wall-clock watchdog per recovery-oracle invocation (0 = default)")
		exitZero   = flag.Bool("exit-zero", false, "exit 0 even when bugs were found (smoke tests that assert findings without failing the step)")
		journalDir = flag.String("journal", "", "directory for a durable campaign journal: every verdict is fsync'd, and rerunning the same command resumes the campaign it holds")
		vcFile     = flag.String("verdict-cache-file", "", "persistent cross-run verdict cache file (counter mode only): re-runs of the identical campaign judge only crash images never judged before")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to FILE (read it with go tool pprof; the report is unchanged)")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at the end of the run to FILE")
		execTrace  = flag.String("trace", "", "write a Go runtime execution trace of the run to FILE (read it with go tool trace)")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(apps.Names(), "\n"))
		// The sandbox and image-dedup fixtures are targets too (kept out
		// of the paper's §6 registry on purpose).
		fmt.Println(strings.Join(misbehave.Names(), "\n"))
		fmt.Println(strings.Join(imagedup.Names(), "\n"))
		return
	}
	if err := validateFlags(flagValues{
		ops: *ops, workers: *workers, poolMB: *poolMB, budget: *budget,
		recTimeout: *recTimeout, verdictCache: *vcFile, stackMode: *stackMode,
		cpuProfile: *cpuProfile, memProfile: *memProfile, execTrace: *execTrace,
	}); err != nil {
		fatal(err)
	}
	if err := startProfiles(*cpuProfile, *memProfile, *execTrace); err != nil {
		fatal(err)
	}
	ver, err := parseVersion(*pmdkVer)
	if err != nil {
		fatal(err)
	}
	set := bugs.Set{}
	if *seedBugs != "" {
		for _, id := range strings.Split(*seedBugs, ",") {
			bid := bugs.ID(strings.TrimSpace(id))
			if _, ok := bugs.Lookup(bid); !ok {
				fatal(fmt.Errorf("unknown seeded bug %q", bid))
			}
			set[bid] = true
		}
	}
	appCfg := apps.Config{
		Ver: ver, SPT: *spt, Bugs: set,
		WithRecovery: *recovery, MontageBuggy: *montageBug,
		PoolSize: *poolMB << 20,
	}
	var app harness.Application
	if fixture, ok := misbehave.New(*target); ok {
		app = fixture
	} else if fixture, ok := imagedup.New(*target); ok {
		app = fixture
	} else {
		app, err = apps.New(*target, appCfg)
		if err != nil {
			fatal(err)
		}
	}
	wlCfg := workload.Config{N: *ops, Seed: *seed}
	w := workload.Generate(wlCfg)
	gran := fpt.GranPersistency
	if *storeGran {
		gran = fpt.GranStore
	}
	coreCfg := core.Config{
		Granularity:     gran,
		Budget:          *budget,
		StackMode:       *stackMode,
		Workers:         *workers,
		KeepWarnings:    *warnings,
		EADR:            *eadr,
		HangBudget:      *hangBudget,
		RecoveryTimeout: *recTimeout,
		Classing:        true,
		PersistVerdicts: *vcFile != "",
	}

	// Campaign journal: identity is pinned at creation and re-checked
	// when the journal is reopened, so a journal can never be folded
	// into a different campaign.
	meta := campaignMeta(*target, wlCfg, appCfg, coreCfg)
	var journal *campaign.Journal
	if *journalDir != "" {
		if journal, err = campaign.Open(*journalDir, meta); err != nil {
			fatal(err)
		}
		for _, d := range journal.Diagnostics {
			fmt.Fprintln(os.Stderr, "mumak: journal:", d)
		}
	}

	// Persistent cross-run verdict cache: load before the analysis (a
	// missing file is a cold start; a corrupt or foreign one is fatal —
	// silently ignoring it would hide the warm start the user asked for)
	// and save the campaign's final verdicts after it.
	if *vcFile != "" {
		coreCfg.WarmVerdicts, err = campaign.LoadVerdictCache(*vcFile, meta)
		if err != nil {
			fatal(err)
		}
	}

	// Graceful interruption: the first SIGINT/SIGTERM drains in-flight
	// replays, flushes the journal and prints a partial report with
	// resume instructions; a second signal aborts hard.
	interrupt := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "mumak: %s: draining workers and flushing the journal (repeat to abort hard)\n", s)
		close(interrupt)
		s = <-sigs
		fmt.Fprintf(os.Stderr, "mumak: second %s: aborting\n", s)
		os.Exit(130)
	}()

	coreCfg.Interrupt = interrupt
	coreCfg.Journal = journal
	res, err := core.Analyze(app, w, coreCfg)
	if journal != nil {
		if cerr := journal.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mumak: journal:", cerr)
		}
	}
	if err != nil {
		fatal(err)
	}
	if res.JournalError != "" {
		fmt.Fprintln(os.Stderr, "mumak: journal degraded to unjournaled:", res.JournalError)
	}
	if *vcFile != "" {
		// A failed save only loses next run's warmth, never this run's
		// report; a partial (interrupted) campaign's verdicts are still
		// valid — they are keyed by image content.
		if err := campaign.SaveVerdictCache(*vcFile, meta, res.VerdictCache); err != nil {
			fmt.Fprintln(os.Stderr, "mumak: verdict cache not saved:", err)
		}
	}
	if *jsonOut {
		if err := res.Report.WriteJSON(os.Stdout, *warnings); err != nil {
			fatal(err)
		}
		exit(exitCode(res, *exitZero))
	}
	if *printTree {
		fmt.Println("# failure point tree")
		fmt.Print(res.Tree.String())
		fmt.Println()
	}
	fmt.Print(res.Report.Format(*warnings))
	fmt.Printf("\nfailure points: %d (tree nodes %d) | injections: %d | trace records: %d\n",
		res.Tree.Len(), res.Tree.Nodes(), res.Injections, res.TraceLen)
	if res.AnalyzerPeakLines > 0 {
		fmt.Printf("analyzer state: %d cache lines touched, peak ~%d bytes (streamed, trace not materialised)\n",
			res.AnalyzerPeakLines, res.AnalyzerPeakStateBytes)
	}
	if res.SkippedFailurePoints > 0 {
		fmt.Printf("skipped failure points: %d (coverage is below one fault per failure point)\n",
			res.SkippedFailurePoints)
	}
	if res.InjectionAborted {
		fmt.Println("fault-injection campaign aborted: repeated replays made no progress")
	}
	if res.RetriedFailurePoints > 0 {
		fmt.Printf("replay retries: %d (transient skips re-attempted)\n", res.RetriedFailurePoints)
	}
	if res.TargetPanics > 0 || res.TargetHangs > 0 || res.RecoveryHangs > 0 {
		fmt.Printf("sandbox interventions: %d target panic(s), %d hang-budget kill(s), %d recovery hang(s)\n",
			res.TargetPanics, res.TargetHangs, res.RecoveryHangs)
	}
	if res.EquivClasses > 0 {
		fmt.Printf("classing: %d equivalence class(es) over %d failure point(s), %d inherited verdict(s)\n",
			res.EquivClasses, res.Tree.Len(), res.InheritedVerdicts)
	}
	if *vcFile != "" {
		fmt.Printf("verdict cache file: %d persistent hit(s), %d verdict(s) saved\n",
			res.PersistentCacheHits, len(res.VerdictCache))
	}
	if res.CampaignWorkers > 1 && res.PoolTime > 0 {
		fmt.Printf("campaign workers: %d (avg %.1f busy)\n",
			res.CampaignWorkers, float64(res.WorkerBusy)/float64(res.PoolTime))
	}
	if res.EarlyRecoveries > 0 {
		fmt.Printf("campaign: %d of %d recovery checks ran beside the instrumented run\n",
			res.EarlyRecoveries, res.Recoveries)
	}
	if res.JournalAppends > 0 || res.ResumedFailurePoints > 0 {
		fmt.Printf("journal: %d verdict(s) appended, %d verdict(s) restored on resume\n",
			res.JournalAppends, res.ResumedFailurePoints)
	}
	fmt.Printf("time: %s total (instrument %s, inject %s, trace analysis %s)\n",
		res.Elapsed.Round(time.Millisecond), res.InstrumentTime.Round(time.Millisecond),
		res.InjectTime.Round(time.Millisecond), res.AnalysisTime.Round(time.Millisecond))
	if res.TimedOut {
		fmt.Println("analysis budget expired before completion")
	}
	if res.Interrupted {
		hint := ""
		if *journalDir != "" {
			hint = " (rerun the same command to resume)"
		}
		fmt.Printf("campaign interrupted before completion%s\n", hint)
	}
	exit(exitCode(res, *exitZero))
}

// campaignMeta is the identity a journal or verdict-cache file is
// pinned to, derived from the effective configurations: every setting
// that changes the failure point tree or a verdict.
func campaignMeta(target string, w workload.Config, app apps.Config, cfg core.Config) campaign.Meta {
	var seeded []string
	for id, on := range app.Bugs {
		if on {
			seeded = append(seeded, string(id))
		}
	}
	sort.Strings(seeded)
	return campaign.Meta{
		Target: target, Ops: w.N, Seed: w.Seed,
		StackMode: cfg.StackMode, StoreGranularity: cfg.Granularity == fpt.GranStore, EADR: cfg.EADR,
		WithRecovery: app.WithRecovery, PMDK: app.Ver.String(), SPT: app.SPT, SeedBugs: seeded,
		MontageBuggy: app.MontageBuggy, PoolMB: app.PoolSize >> 20,
		HangBudget: cfg.HangBudget, RecoveryTimeout: cfg.RecoveryTimeout,
	}
}

// exitCode maps the campaign outcome onto CI-friendly process status:
// 0 clean, 1 bugs found, 3 interrupted before completion. -exit-zero
// forces 0 for smoke tests that assert findings without failing the
// step.
func exitCode(res *core.Result, exitZero bool) int {
	switch {
	case exitZero:
		return 0
	case res.Interrupted:
		return 3
	case len(res.Report.Bugs()) > 0:
		return 1 // CI-pipeline friendly: bugs fail the build
	}
	return 0
}

func parseVersion(s string) (pmdk.Version, error) {
	switch s {
	case "1.6":
		return pmdk.V16, nil
	case "1.8":
		return pmdk.V18, nil
	case "1.12", "1.12.0":
		return pmdk.V112, nil
	}
	return 0, fmt.Errorf("unknown PMDK version %q (want 1.6, 1.8 or 1.12)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mumak:", err)
	exit(2)
}
