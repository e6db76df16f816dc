/**
 * @file
 * Workload generators: every Table 1 benchmark must build, run to
 * completion functionally, be deterministic, and keep its threads in
 * disjoint segments.
 */

#include <gtest/gtest.h>

#include "isa/functional.hh"
#include "workload/workload.hh"

using namespace fh;

namespace
{

workload::WorkloadSpec
tinySpec(u64 iterations = 500)
{
    workload::WorkloadSpec spec;
    spec.iterations = iterations;
    spec.maxThreads = 2;
    spec.footprintDivider = 64;
    return spec;
}

} // namespace

TEST(Workload, RegistryHasAllFourteenBenchmarks)
{
    EXPECT_EQ(workload::all().size(), 14u);
    EXPECT_NE(workload::find("429.mcf"), nullptr);
    EXPECT_EQ(workload::find("nonexistent"), nullptr);
}

TEST(Workload, BuildIsDeterministic)
{
    auto a = workload::build("400.perl", tinySpec());
    auto b = workload::build("400.perl", tinySpec());
    EXPECT_EQ(a.text.size(), b.text.size());
    for (size_t i = 0; i < a.text.size(); ++i)
        EXPECT_TRUE(a.text[i] == b.text[i]) << "at " << i;
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(a.threadBases, b.threadBases);
}

TEST(Workload, DifferentSeedsChangeData)
{
    auto spec1 = tinySpec();
    auto spec2 = tinySpec();
    spec2.seed = 999;
    auto a = workload::build("401.bzip2", spec1);
    auto b = workload::build("401.bzip2", spec2);
    EXPECT_NE(a.data, b.data);
}

class AllBenchmarks : public testing::TestWithParam<std::string>
{
};

TEST_P(AllBenchmarks, BuildsWithSaneStructure)
{
    auto prog = workload::build(GetParam(), tinySpec());
    EXPECT_FALSE(prog.text.empty());
    EXPECT_EQ(prog.text.back().op, isa::Op::Halt);
    EXPECT_EQ(prog.threadBases.size(), 2u);
    EXPECT_EQ(prog.segments.size(), 2u);
    // Branch targets must be in range.
    for (const auto &inst : prog.text) {
        if (isa::isBranch(inst.op)) {
            EXPECT_LT(inst.target, prog.text.size());
        }
    }
}

TEST_P(AllBenchmarks, ThreadsRunFunctionallyInDisjointSegments)
{
    auto prog = workload::build(GetParam(), tinySpec());
    mem::Memory m;
    prog.load(m);

    for (unsigned tid = 0; tid < 2; ++tid) {
        isa::ArchState s = isa::initialState(prog, tid);
        u64 guard = 0;
        const auto &my_seg = prog.segments[tid];
        const auto &other_seg = prog.segments[1 - tid];
        while (!s.halted) {
            // Check memory operands against the thread's segment.
            const auto &inst = prog.text[s.pc];
            if (isa::isMemory(inst.op)) {
                Addr a = isa::effectiveAddr(inst, s.regs[inst.rs1]);
                EXPECT_TRUE(my_seg.contains(a)) << GetParam();
                EXPECT_FALSE(other_seg.contains(a));
            }
            ASSERT_EQ(isa::stepArch(prog, m, s), isa::Trap::None)
                << GetParam() << " trapped";
            ASSERT_LT(++guard, 3'000'000u) << GetParam() << " hung";
        }
    }
}

TEST_P(AllBenchmarks, FootprintDividerShrinksSegments)
{
    auto small = tinySpec();
    auto big = tinySpec();
    big.footprintDivider = 1;
    auto ps = workload::build(GetParam(), small);
    auto pb = workload::build(GetParam(), big);
    EXPECT_LE(ps.segments[0].size, pb.segments[0].size);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, AllBenchmarks,
    testing::Values("400.perl", "401.bzip2", "429.mcf", "473.astar",
                    "447.dealII", "416.gamess", "437.leslie3d",
                    "apache", "specjbb", "oltp", "ocean", "raytrace",
                    "volrend", "water-nsq"),
    [](const testing::TestParamInfo<std::string> &param_info) {
        std::string n = param_info.param;
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(Workload, FourThreadLayoutsForSrt)
{
    workload::WorkloadSpec spec = tinySpec();
    spec.maxThreads = 4;
    auto prog = workload::build("ocean", spec);
    EXPECT_EQ(prog.threadBases.size(), 4u);
    EXPECT_EQ(prog.segments.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        for (unsigned j = i + 1; j < 4; ++j) {
            const auto &a = prog.segments[i];
            const auto &b = prog.segments[j];
            bool disjoint = a.base + a.size <= b.base ||
                            b.base + b.size <= a.base;
            EXPECT_TRUE(disjoint);
        }
}
