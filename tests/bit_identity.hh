/**
 * @file
 * Shared helper for the differential tests (trace replay, StudyRunner
 * worker counts): assert two RunResults are bit-identical, field by
 * field.
 */

#ifndef CCNUMA_TESTS_BIT_IDENTITY_HH
#define CCNUMA_TESTS_BIT_IDENTITY_HH

#include <gtest/gtest.h>

#include <string>

#include "sim/stats.hh"

namespace ccnuma::testutil {

inline void
expectIdentical(const sim::RunResult& want, const sim::RunResult& got,
                const std::string& what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(want.time, got.time);
    EXPECT_EQ(want.pageMigrations, got.pageMigrations);
    ASSERT_EQ(want.procs.size(), got.procs.size());
    for (std::size_t p = 0; p < want.procs.size(); ++p) {
        SCOPED_TRACE("proc " + std::to_string(p));
        const sim::ProcTimes& wt = want.procs[p].t;
        const sim::ProcTimes& gt = got.procs[p].t;
        EXPECT_EQ(wt.busy, gt.busy);
        EXPECT_EQ(wt.memStall, gt.memStall);
        EXPECT_EQ(wt.syncWait, gt.syncWait);
        EXPECT_EQ(wt.syncOp, gt.syncOp);
        EXPECT_EQ(wt.lockWait, gt.lockWait);
        EXPECT_EQ(wt.barrierWait, gt.barrierWait);
        const sim::ProcCounters& wc = want.procs[p].c;
        const sim::ProcCounters& gc = got.procs[p].c;
        EXPECT_EQ(wc.loads, gc.loads);
        EXPECT_EQ(wc.stores, gc.stores);
        EXPECT_EQ(wc.l2Hits, gc.l2Hits);
        EXPECT_EQ(wc.missLocal, gc.missLocal);
        EXPECT_EQ(wc.missRemoteClean, gc.missRemoteClean);
        EXPECT_EQ(wc.missRemoteDirty, gc.missRemoteDirty);
        EXPECT_EQ(wc.upgrades, gc.upgrades);
        EXPECT_EQ(wc.invalsSent, gc.invalsSent);
        EXPECT_EQ(wc.invalsReceived, gc.invalsReceived);
        EXPECT_EQ(wc.invalsSpurious, gc.invalsSpurious);
        EXPECT_EQ(wc.updatesSent, gc.updatesSent);
        EXPECT_EQ(wc.updatesReceived, gc.updatesReceived);
        EXPECT_EQ(wc.writebacks, gc.writebacks);
        EXPECT_EQ(wc.prefetchesIssued, gc.prefetchesIssued);
        EXPECT_EQ(wc.prefetchesUseful, gc.prefetchesUseful);
        EXPECT_EQ(wc.pageMigrations, gc.pageMigrations);
        EXPECT_EQ(wc.lockAcquires, gc.lockAcquires);
        EXPECT_EQ(wc.lockContended, gc.lockContended);
        EXPECT_EQ(wc.barriersPassed, gc.barriersPassed);
    }
}

} // namespace ccnuma::testutil

#endif // CCNUMA_TESTS_BIT_IDENTITY_HH
