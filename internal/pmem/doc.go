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
// The persistency model is that of x86 under ADR:
//
//   - Stores land in a volatile cache line (64 bytes) and are lost on a
//     crash unless written back.
//   - clflush writes a line back synchronously.
//   - clflushopt and clwb issue an asynchronous write-back that is only
//     guaranteed durable after the next fence (sfence, mfence or a
//     read-modify-write, which has fence semantics).
//   - Non-temporal stores bypass the cache but are buffered like an
//     asynchronous flush: they too require a fence.
//
// Failure atomicity is provided for aligned 8-byte units: a crash image
// never exposes a torn 8-byte word, but a larger store may be split.
//
// The Engine models coherence and dirtiness only: one coherent view of
// the pool, which loads read and stores write, and the set of dirty
// lines, which a cached store marks and any flush clears. Fences change
// no engine state. Every store, flush and fence emits its event all the
// same, and strict durability — which write-backs a power cut keeps —
// is modelled once, by package trace's Cursor, over the recorded events.
//
// # Observing instructions
//
// The instrumented run and every stack-mode replay observe every
// instruction, so the path from an instruction to its hooks allocates
// nothing. Loads are most of the instructions a target issues and none
// of Mumak's hooks reads one, so a load is counted for every hook but
// handed only to those that read loads: a hook declines them through
// LoadDemand, as it asks for stacks through StackDemand. Each Engine
// owns one Event, which it overwrites whole for every instruction it
// delivers, and one operand buffer, into which it copies a store's or
// RMW's value for Event.Data; Annotate likewise reuses one Annotation.
// Operands therefore stay on the caller's stack, and Load fills a
// buffer the caller passes. The price is a rule for hooks: the *Event
// and its Data are valid only during OnEvent, and a hook issues no
// instruction on the engine that delivered them (see Hook).
//
// # Crash images
//
// The engine materialises one kind of crash image: the "graceful crash"
// image used by Mumak's fault injector, in which every store issued
// before the failure point is persisted (the program-order prefix of
// §4.1 of the paper). That image is exactly the view, a copy-on-write
// page table, so freezing the view takes it in O(1), and the
// instrumented run hands every failure point its image without any
// replay.
//
// The strictly durable image, finer-grained images (arbitrary subsets of
// unfenced flushes, store reorderings) and the crash states that depend
// on eviction belong to the baseline tools, which build them from
// recorded traces through the certain image and the uncertain units of
// package trace's Cursor. The Cursor keeps the certain state in an
// engine of its own and freezes it the same way, so every Image is a
// frozen page table. Content hashes are computed on demand (hash.go):
// the failure-point stamp folds the pages written since the previous
// one.
package pmem
