// Package pmem simulates a byte-addressable persistent memory device
// attached to an x86-style CPU cache hierarchy, following the relaxed,
// buffered persistency model of Intel-x86 (Raad et al., POPL 2020).
//
// The package is the substrate that replaces both Intel Optane DCPMM and
// Intel Pin in the original Mumak system: applications perform loads,
// stores and persistency instructions (clflush, clflushopt, clwb, sfence,
// mfence, non-temporal stores, read-modify-writes) through an Engine, and
// analysis tools observe the resulting instruction stream through Hooks
// without any cooperation from the application — the black-box observation
// channel of the paper.
//
// # Durability model
//
//   - The medium (the Pool) is durable: its contents survive a crash.
//   - Stores land in a volatile cache line (64 bytes) and are lost on a
//     crash unless written back.
//   - clflush writes a line back synchronously.
//   - clflushopt and clwb enqueue an asynchronous write-back that is only
//     guaranteed durable after the next fence (sfence, mfence or a
//     read-modify-write, which has fence semantics).
//   - Non-temporal stores bypass the cache but are buffered like an
//     asynchronous flush: they too require a fence.
//
// Failure atomicity is provided for aligned 8-byte units: a crash image
// never exposes a torn 8-byte word, but a larger store may be split.
//
// # Crash images
//
// Engine materialises two kinds of crash image: the strictly durable
// state (medium only), and the "graceful crash" image used by Mumak's
// fault injector, in which every store issued before the failure point
// is persisted (the program-order prefix of §4.1 of the paper). Neither
// depends on cache evictions, and the simulated cache never evicts on
// its own. The engine therefore holds only the durable medium, the dirty
// masks of the lines not yet written back, the queued write-backs and
// one coherent view, a copy-on-write medium that is the only copy of
// cached bytes. The view is exactly the graceful-crash image, so
// freezing it takes that image in O(1), and the instrumented run hands
// every failure point its image without any replay.
//
// Finer-grained images (arbitrary subsets of unfenced flushes, store
// reorderings) and the crash states that depend on eviction belong to
// the baseline tools, which build them from recorded traces through the
// uncertain units of package trace's Cursor.
package pmem
