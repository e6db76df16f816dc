/**
 * @file
 * Pinned outcomes for the golden checkpoint ledger. A campaign
 * classified against the master's ledger checkpoints must reproduce
 * the exact counts the explicit per-trial golden fork produced, on
 * several workloads, schemes and core shapes, for 1 and 4 worker
 * threads. Also checks which program layouts the ledger accepts, and
 * pins the fork runtime's no-post-freeze-ticks guarantee that the
 * ledger's throughput win partly rests on.
 *
 * How the pinned counts were recorded: at commit 31a6ec1, the last
 * revision with the golden-fork loop, each case below ran through
 * fault::runCampaign with the explicit golden fork forced on (the
 * CampaignConfig flag that revision had for it) and exactly runOnce's
 * configuration (injections 28, window 250, footprintDivider 64,
 * WorkloadSpec::maxThreads = segments, CoreParams::threads = smt), at
 * 1 worker thread with FH_EARLY_STOP unset. Rerunning at 4 worker
 * threads gave identical counts, and so did FH_EARLY_STOP=0 except
 * earlyTerminated, which is then 0. At that commit the ledger also
 * matched the golden fork on the first four cases; the others ran on
 * the golden fork because the ledger did not yet accept more segments
 * than SMT threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "fault/campaign.hh"
#include "fault/golden_ledger.hh"
#include "fault/tandem.hh"
#include "isa/program.hh"
#include "workload/workload.hh"

namespace
{

using namespace fh;

/** Every counter the golden reference decides. */
struct Pinned
{
    u64 injected, masked, noisy, sdc, recovered, detected, uncovered;
    fault::SdcBins bins;
    u64 hungBare, hungProtected, skippedProvablyMasked;
    u64 earlyTerminated; ///< with early stop on; 0 when it is off
};

struct LedgerCase
{
    const char *label;
    const char *bench;
    filters::DetectorParams detector;
    u64 seed;
    unsigned smt;      ///< CoreParams::threads
    unsigned segments; ///< WorkloadSpec::maxThreads
    Pinned golden;     ///< golden-fork counts (see file comment)
};

/** Name failing cases by label instead of a byte dump. */
void
PrintTo(const LedgerCase &c, std::ostream *os)
{
    *os << c.label;
}

fault::CampaignResult
runOnce(const LedgerCase &c, unsigned threads)
{
    workload::WorkloadSpec spec;
    spec.maxThreads = c.segments;
    spec.footprintDivider = 64;
    isa::Program program = workload::build(c.bench, spec);

    pipeline::CoreParams params;
    params.threads = c.smt;
    params.detector = c.detector;

    fault::CampaignConfig cfg;
    cfg.injections = 28;
    cfg.window = 250;
    cfg.seed = c.seed;
    cfg.threads = threads;
    return fault::runCampaign(params, &program, cfg);
}

void
expectPinned(const fault::CampaignResult &r, const Pinned &p)
{
    EXPECT_EQ(r.injected, p.injected);
    EXPECT_EQ(r.masked, p.masked);
    EXPECT_EQ(r.noisy, p.noisy);
    EXPECT_EQ(r.sdc, p.sdc);
    EXPECT_EQ(r.recovered, p.recovered);
    EXPECT_EQ(r.detected, p.detected);
    EXPECT_EQ(r.uncovered, p.uncovered);
    EXPECT_EQ(r.bins.covered, p.bins.covered);
    EXPECT_EQ(r.bins.secondLevelMasked, p.bins.secondLevelMasked);
    EXPECT_EQ(r.bins.completedReg, p.bins.completedReg);
    EXPECT_EQ(r.bins.archReg, p.bins.archReg);
    EXPECT_EQ(r.bins.renameUncovered, p.bins.renameUncovered);
    EXPECT_EQ(r.bins.noTrigger, p.bins.noTrigger);
    EXPECT_EQ(r.bins.other, p.bins.other);
    EXPECT_EQ(r.hungBare, p.hungBare);
    EXPECT_EQ(r.hungProtected, p.hungProtected);
    EXPECT_EQ(r.skippedProvablyMasked, p.skippedProvablyMasked);
    EXPECT_EQ(r.earlyTerminated, fault::CampaignConfig::envEarlyStop()
                                     ? p.earlyTerminated
                                     : 0u);
    EXPECT_EQ(r.trialErrors, 0u);
}

class LedgerEquivalence : public testing::TestWithParam<LedgerCase>
{
};

TEST_P(LedgerEquivalence, MatchesRecordedGoldenForkCounts)
{
    const LedgerCase &c = GetParam();
    expectPinned(runOnce(c, 1), c.golden);
    // The worker count shards wave execution differently but must not
    // change a single count either way.
    expectPinned(runOnce(c, 4), c.golden);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LedgerEquivalence,
    testing::Values(
        // One segment per SMT thread.
        LedgerCase{"ocean_faulthound", "ocean",
                   filters::DetectorParams::faultHound(), 1234, 2, 2,
                   {28, 23, 1, 4, 1, 0, 3, {1, 0, 2, 1, 1, 0, 0}, 0, 0,
                    0, 14}},
        LedgerCase{"ocean_unprotected", "ocean",
                   filters::DetectorParams::none(), 42, 2, 2,
                   {28, 24, 2, 2, 0, 0, 2, {0, 0, 0, 0, 0, 0, 2}, 0, 0,
                    2, 17}},
        LedgerCase{"volrend_faulthound", "volrend",
                   filters::DetectorParams::faultHound(), 7, 2, 2,
                   {28, 24, 0, 4, 0, 0, 4, {0, 1, 3, 0, 0, 0, 0}, 0, 0,
                    3, 11}},
        LedgerCase{"gamess_pbfs_biased", "416.gamess",
                   filters::DetectorParams::pbfsBiased(), 99, 2, 2,
                   {28, 25, 1, 2, 1, 0, 1, {1, 0, 0, 0, 1, 0, 0}, 0, 0,
                    4, 16}},
        // More segments than SMT threads: the absent threads' segments
        // are sampled at open() (GoldenLedger file comment). SMT 1 is
        // what fhsim threads=1 and spec core_threads=1 build.
        LedgerCase{"smt1_gamess_faulthound", "416.gamess",
                   filters::DetectorParams::faultHound(), 3, 1, 2,
                   {28, 26, 0, 2, 1, 0, 1, {1, 0, 1, 0, 0, 0, 0}, 0, 0,
                    18, 6}},
        LedgerCase{"smt1_mcf_unprotected", "429.mcf",
                   filters::DetectorParams::none(), 23, 1, 2,
                   {28, 18, 2, 8, 0, 0, 8, {0, 0, 0, 0, 0, 0, 8}, 0, 0,
                    5, 9}},
        LedgerCase{"smt2_seg4_ocean_faulthound", "ocean",
                   filters::DetectorParams::faultHound(), 7, 2, 4,
                   {28, 24, 0, 4, 4, 0, 0, {4, 0, 0, 0, 0, 0, 0}, 0, 0,
                    3, 15}},
        LedgerCase{"smt2_seg4_bzip2_unprotected", "401.bzip2",
                   filters::DetectorParams::none(), 17, 2, 4,
                   {28, 22, 2, 4, 0, 0, 4, {0, 0, 0, 0, 0, 0, 4}, 0, 0,
                    8, 6}},
        LedgerCase{"smt3_seg4_water_pbfs_biased", "water-nsq",
                   filters::DetectorParams::pbfsBiased(), 31, 3, 4,
                   {28, 19, 3, 6, 4, 0, 2, {4, 0, 2, 0, 0, 0, 0}, 0, 0,
                    3, 9}}),
    [](const testing::TestParamInfo<LedgerCase> &pinfo) {
        return std::string(pinfo.param.label);
    });

// Every built-in workload satisfies the ledger's layout at every SMT
// width fhsim and the campaign spec build (maxThreads floored at 2),
// and on a 2-thread core running the default 4-thread image.
TEST(GoldenLedger, SupportsBuiltInWorkloadLayout)
{
    for (const workload::BenchmarkInfo &info : workload::all()) {
        for (unsigned smt : {1u, 2u, 4u}) {
            workload::WorkloadSpec spec;
            spec.maxThreads = std::max(2u, smt);
            spec.footprintDivider = 64;
            isa::Program program = info.build(spec);
            pipeline::CoreParams params;
            params.threads = smt;
            pipeline::Core core(params, &program);
            EXPECT_TRUE(fault::GoldenLedger::supports(core, program))
                << info.name << " smt " << smt;
            EXPECT_EQ(core.memory().segmentCount(),
                      static_cast<size_t>(spec.maxThreads))
                << info.name << " smt " << smt;
        }
    }

    workload::WorkloadSpec spec; // default: 4-thread image
    spec.footprintDivider = 64;
    isa::Program program = workload::build("ocean", spec);
    pipeline::CoreParams params; // default: 2 SMT threads
    pipeline::Core core(params, &program);
    EXPECT_EQ(core.memory().segmentCount(), 4u);
    EXPECT_TRUE(fault::GoldenLedger::supports(core, program));
}

// A program whose segments are not in thread order has no golden
// reference the ledger can stand for; the campaign refuses it instead
// of classifying against the wrong segment.
TEST(GoldenLedgerDeathTest, UnsupportedLayoutIsFatal)
{
    constexpr Addr a = 0x20000000, b = 0x20010000;
    isa::ProgramBuilder builder("swapped");
    builder.addSegment(a, 4096);
    builder.addSegment(b, 4096);
    builder.emit(isa::makeLi(2, 0));
    const u32 loop = builder.here();
    builder.emit(isa::makeRRI(isa::Op::Addi, 2, 2, 1));
    builder.emit(isa::makeJmp(loop));
    isa::Program program = builder.take();
    program.threadBases = {b, a};

    pipeline::CoreParams params;
    pipeline::Core core(params, &program);
    EXPECT_FALSE(fault::GoldenLedger::supports(core, program));

    fault::CampaignConfig cfg;
    cfg.injections = 4;
    cfg.threads = 1;
    EXPECT_EXIT(fault::runCampaign(params, &program, cfg),
                testing::ExitedWithCode(1),
                "'swapped' lacks the memory layout the golden ledger "
                "needs");
}

// Regression: once every thread is frozen at its stopAfterInsts
// boundary (or halted), runUntilCommitted must return without ticking
// — fork cycle counts may not include post-freeze cycles.
TEST(GoldenLedger, NoTicksAfterAllThreadsFrozen)
{
    workload::WorkloadSpec spec;
    spec.maxThreads = 2;
    spec.footprintDivider = 64;
    isa::Program program = workload::build("ocean", spec);
    pipeline::CoreParams params;
    pipeline::Core core(params, &program);

    std::vector<u64> targets(core.numThreads());
    for (unsigned tid = 0; tid < core.numThreads(); ++tid) {
        targets[tid] = core.committed(tid) + 200;
        core.threadOptions(tid).stopAfterInsts = targets[tid];
    }
    ASSERT_TRUE(core.runUntilCommitted(targets, 1000000));
    const Cycle frozen_at = core.cycle();
    const u64 stat_cycles = core.stats().cycles;

    // Re-running against the same (met) targets must be a no-op.
    EXPECT_TRUE(core.runUntilCommitted(targets, 1000000));
    EXPECT_EQ(core.cycle(), frozen_at);
    EXPECT_EQ(core.stats().cycles, stat_cycles);

    // Raising the targets while the freeze points stay put can never
    // make progress; the runtime must bail immediately instead of
    // burning the whole cycle bound.
    std::vector<u64> beyond = targets;
    for (u64 &t : beyond)
        t += 100;
    EXPECT_FALSE(core.runUntilCommitted(beyond, 1000000));
    EXPECT_EQ(core.cycle(), frozen_at);
    EXPECT_EQ(core.stats().cycles, stat_cycles);
}

} // namespace
