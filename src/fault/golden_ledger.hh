/**
 * @file
 * Golden checkpoint ledger: the fault campaign's replacement for the
 * per-trial golden fork.
 *
 * The legacy classifier forked the master at every injection point
 * and re-executed a fault-free ("golden") copy of the run window just
 * to sample what correct architectural state looks like at the
 * trial's per-thread commit targets. But the serially advancing
 * master *is* that fault-free execution: every workload gives each
 * SMT thread a private memory segment (guard gaps, r1-relative
 * addressing), so a thread's committed values are a pure function of
 * its own commit count — independent of scheduling, of the other
 * threads, and of whether the detector is checking. The master
 * crossing commit count N on thread t therefore has exactly the
 * architectural register state, trap status and segment contents a
 * frozen golden fork would show at target N.
 *
 * A program may declare more segments than the core runs threads
 * (WorkloadSpec::maxThreads is floored at 2, so a 1-thread core gets
 * 2 segments; a 2-thread core may run a 4-thread image). Segment s
 * then belongs to absent thread s. Nothing in a fault-free run writes
 * it — every access is r1-relative into the accessing thread's own
 * segment — so its digest on the master is constant and equals what
 * a frozen golden fork would show. open() samples it once.
 *
 * The ledger rides the master's retirement stream (CommitObserver) and
 * owns no entries: each campaign trial slot holds its own Entry, and
 * open() registers one watch per thread at the trial's commit target,
 * pointing at that entry. When the master crosses a watch the ledger
 * samples that thread's ArchState, its segment's incremental content
 * digest (mem::Memory::segmentDigest) and its trap status into the
 * entry. Once every thread has crossed (or halted — a golden fork
 * would freeze halted at the same count), remaining is 0, the entry is
 * complete and a worker can classify bare/protected forks against it
 * with O(threads + segments) compares — no golden execution, no
 * memory sweeps. An entry must not move until it is complete.
 *
 * Not thread-safe by design: all mutation happens on the producer
 * thread between worker waves, and workers only read entries of
 * trials whose windows the master has already fully crossed.
 */

#ifndef FH_FAULT_GOLDEN_LEDGER_HH
#define FH_FAULT_GOLDEN_LEDGER_HH

#include <deque>
#include <vector>

#include "isa/functional.hh"
#include "pipeline/core.hh"
#include "sim/types.hh"

namespace fh::fault
{

/** See file comment. */
class GoldenLedger final : public pipeline::CommitObserver
{
  public:
    /**
     * What a frozen golden fork of one trial would have looked like:
     * per-thread architectural state at the trial's commit targets,
     * per-segment memory digests (each sampled at its owner thread's
     * crossing), and whether any thread trapped at or before its
     * target.
     */
    struct Entry
    {
        /** Per thread, at crossing: isa::archStateDigest of the
         *  thread's ArchState, sampled from the master's O(1)
         *  incremental digest (Core::archDigest — trustworthy there
         *  because the master is fault-free). Fork-side compares
         *  recompute from the fork's materialized archState(). */
        std::vector<u64> archDigests;
        /** Per segment: owner thread's segments sampled at its
         *  crossing, absent threads' segments at open(). */
        std::vector<u64> digests;
        bool trapped = false;
        /** True iff every thread finalized at a genuine commit-target
         *  crossing (not a halt, pre-halted open, or force-finalize).
         *  Exactly then a no-fault fork of the snapshot reaches its
         *  targets and samples this entry's state — the precondition
         *  for classifying provably-masked trials without forking. */
        bool crossed = true;
        unsigned remaining = 0; ///< threads not yet crossed
    };

    /** The ledger observes exactly this master (attach separately via
     *  master.setCommitObserver(&ledger)). */
    explicit GoldenLedger(pipeline::Core &master);

    /**
     * Swap the observed master. Used by CampaignSession's mid-campaign
     * drain: a non-final range closes its last windows by ticking a
     * *copy* of the master (so the injection-point schedule of later
     * ranges is untouched), and during those ticks the ledger must
     * sample the copy. The copy is machine-identical to the master, so
     * an entry finalized at commit count N on either holds the same
     * state — the master-as-golden argument is unchanged. Retarget
     * back to the real master before it ticks again.
     */
    void retarget(pipeline::Core &master) { master_ = &master; }

    /**
     * The master-as-golden argument needs every memory segment s to be
     * thread s's private segment: in thread order, based at
     * prog.baseOf(s), with at least one segment per SMT thread.
     * Segments beyond the core's thread count belong to absent threads
     * (see file comment). Every built-in workload satisfies this at
     * any SMT width up to WorkloadSpec::maxThreads; CampaignSession
     * refuses programs that do not.
     */
    static bool supports(const pipeline::Core &master,
                         const isa::Program &prog);

    /**
     * Reset e for a trial snapshotted at the master's current state
     * and watch the given per-thread commit targets (nondecreasing
     * across successive opens, since targets are committed + window).
     * Threads already halted finalize immediately; absent threads'
     * segment digests are sampled now. e fills in place as the master
     * crosses the targets.
     */
    void open(Entry &e, const std::vector<u64> &targets);

    /**
     * Safety valve for a master that stops committing before the last
     * windows close (cannot happen with the built-in workloads, which
     * halt rather than hang): finalize every pending watch from the
     * master's current state, mirroring how a hung golden fork would
     * have been compared at its cycle bound.
     */
    void forceFinalizeAll();

    /**
     * Does a frozen fork match this golden checkpoint? Per-thread
     * arch-digest equality plus per-segment memory-digest equality —
     * the digest-based replacement for archEquals' full-memory sweep
     * and full-ArchState compare. Digest equality is taken as content
     * equality (a collision needs ~2^64 trials; see DESIGN.md).
     */
    static bool matches(const Entry &e, const pipeline::Core &fork);

    // CommitObserver — fired by the master's commit stage.
    void onCommit(const pipeline::Core &core, unsigned tid) override;
    void onThreadHalted(const pipeline::Core &core,
                        unsigned tid) override;

  private:
    struct Watch
    {
        Entry *entry;
        u64 target;
    };

    /** Sample thread tid's state from the master into w.entry. */
    void finalizeThread(const Watch &w, unsigned tid);

    pipeline::Core *master_;
    /** Per-thread pending watches, FIFO by target (targets are
     *  nondecreasing across opens, so crossing pops from the front). */
    std::vector<std::deque<Watch>> watches_;
};

} // namespace fh::fault

#endif // FH_FAULT_GOLDEN_LEDGER_HH
