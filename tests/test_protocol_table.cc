/**
 * @file
 * Transition-table litmus tests: every state x event cell of every
 * shipped protocol is asserted against its textbook definition, and
 * the config sub-objects round-trip through parse()/name().
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/protocol.hh"

using namespace ccnuma;
using sim::DirectoryConfig;
using sim::DirFormat;
using sim::LineState;
using sim::NextState;
using sim::Protocol;
using sim::ProtocolConfig;
using sim::ProtocolKind;
using sim::ReqAct;
using sim::RemAct;

namespace {

constexpr int R = sim::kProtoRead;
constexpr int W = sim::kProtoWrite;
constexpr int I = static_cast<int>(LineState::Invalid);
constexpr int S = static_cast<int>(LineState::Shared);
constexpr int M = static_cast<int>(LineState::Dirty);
constexpr int O = static_cast<int>(LineState::Owned);

void
expectReq(const Protocol& p, int op, int st, NextState next, ReqAct act)
{
    EXPECT_EQ(p.req[op][st].next, next)
        << "req[" << op << "][" << st << "].next";
    EXPECT_EQ(p.req[op][st].act, act)
        << "req[" << op << "][" << st << "].act";
}

void
expectRem(const Protocol& p, int op, int st, NextState next, RemAct act)
{
    EXPECT_EQ(p.rem[op][st].next, next)
        << "rem[" << op << "][" << st << "].next";
    EXPECT_EQ(p.rem[op][st].act, act)
        << "rem[" << op << "][" << st << "].act";
}

} // namespace

TEST(ProtocolTable, MesiEveryCell)
{
    const Protocol& p = Protocol::mesi();
    EXPECT_EQ(p.kind, ProtocolKind::MESI);
    EXPECT_FALSE(p.updateBased);
    EXPECT_FALSE(p.ownerForwarding);

    // Requester side: read miss installs Shared, write miss installs
    // Dirty, a write hit on Shared upgrades by invalidating the rest.
    expectReq(p, R, I, NextState::Shared, ReqAct::Fill);
    expectReq(p, R, S, NextState::Same, ReqAct::None);
    expectReq(p, R, M, NextState::Same, ReqAct::None);
    expectReq(p, W, I, NextState::Dirty, ReqAct::Fill);
    expectReq(p, W, S, NextState::Dirty, ReqAct::Invalidate);
    expectReq(p, W, M, NextState::Same, ReqAct::None);

    // Remote side: a read of a dirty line downgrades the owner with a
    // memory writeback; any write destroys every other copy.
    expectRem(p, R, S, NextState::Same, RemAct::None);
    expectRem(p, R, M, NextState::Shared, RemAct::SupplyWriteback);
    expectRem(p, W, S, NextState::Invalid, RemAct::Invalidate);
    expectRem(p, W, M, NextState::Invalid, RemAct::Invalidate);
}

TEST(ProtocolTable, MoesiEveryCell)
{
    const Protocol& p = Protocol::moesi();
    EXPECT_EQ(p.kind, ProtocolKind::MOESI);
    EXPECT_FALSE(p.updateBased);
    EXPECT_TRUE(p.ownerForwarding);

    expectReq(p, R, I, NextState::Shared, ReqAct::Fill);
    expectReq(p, R, S, NextState::Same, ReqAct::None);
    expectReq(p, R, M, NextState::Same, ReqAct::None);
    // An Owned holder reads its own (dirty) data freely and regains
    // exclusivity on a write by invalidating the clean copies.
    expectReq(p, R, O, NextState::Same, ReqAct::None);
    expectReq(p, W, I, NextState::Dirty, ReqAct::Fill);
    expectReq(p, W, S, NextState::Dirty, ReqAct::Invalidate);
    expectReq(p, W, M, NextState::Same, ReqAct::None);
    expectReq(p, W, O, NextState::Dirty, ReqAct::Invalidate);

    // The MOESI point: a read of a dirty line is served by the owner
    // with NO memory writeback; the owner drops to Owned and keeps
    // supplying later readers.
    expectRem(p, R, S, NextState::Same, RemAct::None);
    expectRem(p, R, M, NextState::Owned, RemAct::SupplyKeep);
    expectRem(p, R, O, NextState::Same, RemAct::SupplyKeep);
    expectRem(p, W, S, NextState::Invalid, RemAct::Invalidate);
    expectRem(p, W, M, NextState::Invalid, RemAct::Invalidate);
    expectRem(p, W, O, NextState::Invalid, RemAct::Invalidate);
}

TEST(ProtocolTable, DragonEveryCell)
{
    const Protocol& p = Protocol::dragon();
    EXPECT_EQ(p.kind, ProtocolKind::Dragon);
    EXPECT_TRUE(p.updateBased);
    EXPECT_TRUE(p.ownerForwarding);

    expectReq(p, R, I, NextState::Shared, ReqAct::Fill);
    expectReq(p, R, S, NextState::Same, ReqAct::None);
    expectReq(p, R, M, NextState::Same, ReqAct::None);
    expectReq(p, R, O, NextState::Same, ReqAct::None);
    // Writes never invalidate: a write miss/hit on a shared line sends
    // updates and lands in Sm (Owned) when other copies remain, else M.
    expectReq(p, W, I, NextState::OwnedIfSharers, ReqAct::Fill);
    expectReq(p, W, S, NextState::OwnedIfSharers, ReqAct::Update);
    expectReq(p, W, M, NextState::Same, ReqAct::None);
    expectReq(p, W, O, NextState::OwnedIfSharers, ReqAct::Update);

    // Remote copies survive everything; a remote write refreshes them
    // in place and demotes the old owner to a clean sharer.
    expectRem(p, R, S, NextState::Same, RemAct::None);
    expectRem(p, R, M, NextState::Owned, RemAct::SupplyKeep);
    expectRem(p, R, O, NextState::Same, RemAct::SupplyKeep);
    expectRem(p, W, S, NextState::Same, RemAct::Update);
    expectRem(p, W, M, NextState::Shared, RemAct::Update);
    expectRem(p, W, O, NextState::Shared, RemAct::Update);
}

TEST(ProtocolTable, GetDispatchesByKind)
{
    EXPECT_EQ(&Protocol::get(ProtocolKind::MESI), &Protocol::mesi());
    EXPECT_EQ(&Protocol::get(ProtocolKind::MOESI), &Protocol::moesi());
    EXPECT_EQ(&Protocol::get(ProtocolKind::Dragon),
              &Protocol::dragon());
}

TEST(ProtocolConfigParse, RoundTripsAllKinds)
{
    for (const char* name : {"mesi", "moesi", "dragon"}) {
        ProtocolConfig pc;
        ASSERT_TRUE(pc.parse(name)) << name;
        EXPECT_EQ(pc.name(), name);
        ProtocolConfig back;
        ASSERT_TRUE(back.parse(pc.name()));
        EXPECT_EQ(back.kind, pc.kind);
    }
}

TEST(ProtocolConfigParse, RejectsUnknownAndLeavesConfigUntouched)
{
    ProtocolConfig pc;
    pc.kind = ProtocolKind::MOESI;
    for (const char* bad : {"", "MESI", "mosi", "dragonfly", "mesi "})
        EXPECT_FALSE(pc.parse(bad)) << "'" << bad << "'";
    EXPECT_EQ(pc.kind, ProtocolKind::MOESI);
}

TEST(DirectoryConfigParse, RoundTripsAllFormats)
{
    for (const char* name : {"fullbv", "coarse:4", "ptr:2", "coarse:1",
                             "ptr:64"}) {
        DirectoryConfig dc;
        ASSERT_TRUE(dc.parse(name)) << name;
        EXPECT_EQ(dc.name(), name);
        DirectoryConfig back;
        ASSERT_TRUE(back.parse(dc.name()));
        EXPECT_EQ(back.format, dc.format);
        EXPECT_EQ(back.param, dc.param);
    }
}

TEST(DirectoryConfigParse, RejectsMalformedInput)
{
    DirectoryConfig dc;
    dc.format = DirFormat::CoarseVector;
    dc.param = 8;
    for (const char* bad :
         {"", "full", "coarse", "coarse:", "coarse:0", "coarse:-1",
          "coarse:abc", "ptr", "ptr:", "ptr:0", "ptr:1x", "fullbv:2"})
        EXPECT_FALSE(dc.parse(bad)) << "'" << bad << "'";
    EXPECT_EQ(dc.format, DirFormat::CoarseVector);
    EXPECT_EQ(dc.param, 8);
}

TEST(MachineConfigValidate, RejectsBadProtocolDirectoryCombinations)
{
    sim::MachineConfig cfg = sim::MachineConfig::origin2000(4);
    ASSERT_TRUE(cfg.validate().empty());

    cfg.dirFormat.format = DirFormat::CoarseVector;
    cfg.dirFormat.param = 0;
    EXPECT_FALSE(cfg.validate().empty());
    cfg.dirFormat.param = 4;
    EXPECT_TRUE(cfg.validate().empty());
}
