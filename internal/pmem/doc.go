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
//   - The cache may spontaneously evict dirty lines (persisting them
//     without a flush) under a seeded eviction policy, which is exactly
//     the non-determinism that masks missing-flush bugs in practice.
//
// Failure atomicity is provided for aligned 8-byte units: a crash image
// never exposes a torn 8-byte word, but a larger store may be split.
//
// # Crash images
//
// Engine materialises two kinds of crash image: the strictly durable
// state (medium only), and the "graceful crash" image used by Mumak's
// fault injector, in which every store issued before the failure point
// is persisted (the program-order prefix of §4.1 of the paper). The
// engine holds three things: the durable medium, the queued write-backs
// and one coherent view, a copy-on-write medium that is the only copy of
// cached bytes (the cache itself is a map from line to dirty mask). The
// view is exactly the graceful-crash image, so freezing it takes that
// image in O(1), and the instrumented run hands every failure point its
// image without any replay.
// Finer-grained images (arbitrary subsets of unfenced flushes, store
// reorderings) are built from recorded traces by package trace.
package pmem
