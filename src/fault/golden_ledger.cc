#include "fault/golden_ledger.hh"

#include "sim/logging.hh"

namespace fh::fault
{

GoldenLedger::GoldenLedger(pipeline::Core &master)
    : master_(&master), watches_(master.numThreads())
{
}

bool
GoldenLedger::supports(const pipeline::Core &master,
                       const isa::Program &prog)
{
    const auto segs = master.memory().segments();
    if (segs.size() < master.numThreads() ||
        prog.threadBases.size() < segs.size())
        return false;
    for (unsigned s = 0; s < segs.size(); ++s) {
        if (segs[s].base != prog.baseOf(s))
            return false;
    }
    return true;
}

void
GoldenLedger::finalizeThread(const Watch &w, unsigned tid)
{
    Entry &e = *w.entry;
    e.archDigests[tid] = master_->archDigest(tid);
    e.digests[tid] = master_->memory().segmentDigest(tid);
    if (master_->committed(tid) < w.target)
        e.crossed = false; // halted / force-finalized short of target
    if (master_->trapOf(tid) != isa::Trap::None)
        e.trapped = true;
    fh_assert(e.remaining > 0, "ledger entry finalized twice");
    --e.remaining;
}

void
GoldenLedger::open(Entry &e, const std::vector<u64> &targets)
{
    const unsigned n = master_->numThreads();
    e.archDigests.assign(n, 0);
    // Segments of absent threads (s >= n) are never written by the
    // fault-free master, so their digest now is their golden value.
    const mem::Memory &m = master_->memory();
    e.digests.assign(m.segmentCount(), 0);
    for (size_t s = n; s < e.digests.size(); ++s)
        e.digests[s] = m.segmentDigest(s);
    e.trapped = false;
    e.crossed = true;
    e.remaining = n;

    for (unsigned tid = 0; tid < n; ++tid) {
        const Watch w{&e, targets[tid]};
        if (master_->halted(tid) || master_->committed(tid) >= w.target) {
            // A golden fork would freeze (or already be halted) here
            // without committing anything more on this thread.
            finalizeThread(w, tid);
            continue;
        }
        fh_assert(watches_[tid].empty() ||
                      watches_[tid].back().target <= w.target,
                  "ledger targets must be nondecreasing per thread");
        watches_[tid].push_back(w);
    }
}

void
GoldenLedger::forceFinalizeAll()
{
    for (unsigned tid = 0; tid < watches_.size(); ++tid) {
        auto &dq = watches_[tid];
        while (!dq.empty()) {
            finalizeThread(dq.front(), tid);
            dq.pop_front();
        }
    }
}

bool
GoldenLedger::matches(const Entry &e, const pipeline::Core &fork)
{
    for (unsigned tid = 0; tid < fork.numThreads(); ++tid) {
        // Recompute the fork side from materialized state: a faulty
        // fork's incremental digest can be stale (Core::archDigest).
        if (isa::archStateDigest(fork.archState(tid)) !=
            e.archDigests[tid]) {
            return false;
        }
    }
    const mem::Memory &m = fork.memory();
    for (size_t s = 0; s < e.digests.size(); ++s) {
        if (m.segmentDigest(s) != e.digests[s])
            return false;
    }
    return true;
}

void
GoldenLedger::onCommit(const pipeline::Core &core, unsigned tid)
{
    if (&core != master_)
        return; // a fork copied the observer pointer; ignore it
    auto &dq = watches_[tid];
    const u64 committed = core.committed(tid);
    while (!dq.empty() && dq.front().target <= committed) {
        finalizeThread(dq.front(), tid);
        dq.pop_front();
    }
}

void
GoldenLedger::onThreadHalted(const pipeline::Core &core, unsigned tid)
{
    if (&core != master_)
        return;
    // The thread will never commit again; every pending watch on it
    // finalizes with the halted state — exactly what a golden fork
    // frozen short of its target would have sampled.
    auto &dq = watches_[tid];
    while (!dq.empty()) {
        finalizeThread(dq.front(), tid);
        dq.pop_front();
    }
}

} // namespace fh::fault
