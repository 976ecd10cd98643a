/**
 * @file
 * Table-driven coherence protocols and directory sharer formats.
 *
 * The protocol core of MemSys is no longer hard-coded MESI: every
 * state transition the engine takes is looked up in a `Protocol`
 * table, and every invalidation/update fan-out asks a
 * `DirectoryConfig` which processors the home actually signals. Three
 * protocols ship:
 *
 *  - MESI   (invalidate; the paper's Origin2000 protocol — default,
 *            bit-identical to the historical hard-coded path),
 *  - MOESI  (adds Owned: a dirty line is shared by owner-forwarding
 *            without a memory writeback),
 *  - Dragon (update-based: a store to a shared line pushes the new
 *            value into the other copies instead of destroying them).
 *
 * And three directory sharer representations (the full-bit vector
 * stops scaling past ~128 sharers, which is exactly the p256/p1024
 * regime the roadmap targets):
 *
 *  - fullbv   exact bit vector (current behaviour),
 *  - coarse:K one bit per region of K processors; an invalidation
 *             over-signals every processor of every marked region,
 *  - ptr:N    limited pointers Dir_iB: exact up to N sharers, then an
 *             overflow bit forces broadcast to all processors.
 *
 * Tables are consulted, not documentation: the CheckMutation seam
 * corrupts a cell to prove the SC oracle catches a protocol whose
 * table "forgets" an invalidation.
 */

#ifndef CCNUMA_SIM_PROTOCOL_HH
#define CCNUMA_SIM_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/types.hh"

namespace ccnuma::sim {

/** The coherence protocol families the engine can run. */
enum class ProtocolKind : std::uint8_t {
    MESI,   ///< Invalidation-based, memory-writeback on sharing.
    MOESI,  ///< Invalidation-based with owner-forwarded dirty sharing.
    Dragon, ///< Update-based (writes broadcast the new value).
};

/** Requester-side action a table cell demands. */
enum class ReqAct : std::uint8_t {
    None,       ///< Plain hit; no transaction.
    Fill,       ///< Allocate the line from memory or the owner.
    Invalidate, ///< Gain write permission by invalidating other copies.
    Update,     ///< Push the stored value into the other copies.
};

/** What a remote holder's copy does when another processor accesses. */
enum class RemAct : std::uint8_t {
    None,            ///< Copy unaffected.
    Invalidate,      ///< Copy destroyed.
    SupplyKeep,      ///< Holder supplies the line and keeps its dirty
                     ///< data (no memory writeback; MOESI/Dragon).
    SupplyWriteback, ///< Holder supplies the line and home memory is
                     ///< made current (MESI downgrade).
    Update,          ///< Copy stays valid and absorbs the new value.
};

/**
 * Next-state token for a table cell. Either a concrete cache line
 * state or a context-dependent resolution the engine performs.
 */
enum class NextState : std::uint8_t {
    Invalid,
    Shared,
    Dirty,
    Owned,
    Same,           ///< State unchanged.
    OwnedIfSharers, ///< Owned when other copies remain, else Dirty
                    ///< (Dragon's Sm/M distinction).
};

struct ReqCell {
    NextState next = NextState::Same;
    ReqAct act = ReqAct::None;
};
struct RemCell {
    NextState next = NextState::Same;
    RemAct act = RemAct::None;
};

/// Row selectors for the tables below.
inline constexpr int kProtoRead = 0;
inline constexpr int kProtoWrite = 1;
/// Column count: indexed by LineState (Invalid, Shared, Dirty, Owned).
inline constexpr int kProtoStates = 4;

/**
 * One coherence protocol as a pair of transition tables. `req` is
 * consulted for the requesting processor (op x its current line
 * state); `rem` for every remote holder the transaction reaches
 * (op x the holder's line state). MemSys copies the table per machine
 * so the mutation seam can corrupt a private cell.
 */
struct Protocol {
    ProtocolKind kind = ProtocolKind::MESI;
    /// Stores to shared lines propagate updates instead of
    /// invalidations (Dragon).
    bool updateBased = false;
    /// A dirty line can be shared straight out of the owner's cache,
    /// without a memory writeback (MOESI Owned / Dragon Sm).
    bool ownerForwarding = false;
    ReqCell req[2][kProtoStates];
    RemCell rem[2][kProtoStates];

    /// Op-row count of each table (kProtoRead, kProtoWrite).
    static constexpr int kNumOps = 2;

    /// Call fn(op, stateIdx, const ReqCell&) for every requester-side
    /// cell, ops outer, states (LineState index order) inner. The
    /// tables are the protocol spec; the model checker and table
    /// audits iterate them instead of keeping a second copy.
    template <typename Fn>
    void
    forEachReqCell(Fn&& fn) const
    {
        for (int op = 0; op < kNumOps; ++op)
            for (int s = 0; s < kProtoStates; ++s)
                fn(op, s, req[op][s]);
    }

    /// Call fn(op, stateIdx, const RemCell&) for every remote-holder
    /// cell, same order as forEachReqCell.
    template <typename Fn>
    void
    forEachRemCell(Fn&& fn) const
    {
        for (int op = 0; op < kNumOps; ++op)
            for (int s = 0; s < kProtoStates; ++s)
                fn(op, s, rem[op][s]);
    }

    /**
     * Bitmask over LineState indices of the cache states these tables
     * can drive a line into (bit s => state index s enterable),
     * derived from the next-state tokens themselves: Invalid is always
     * live, Same adds nothing, OwnedIfSharers adds Owned and Dirty.
     * MESI yields {Invalid,Shared,Dirty}; MOESI/Dragon add Owned. A
     * state observed outside this mask is a table bug.
     */
    unsigned reachableStates() const;

    static const Protocol& mesi();
    static const Protocol& moesi();
    static const Protocol& dragon();
    static const Protocol& get(ProtocolKind k);
};

/**
 * Protocol choice plus the protocol-level latency knobs.
 */
struct ProtocolConfig {
    ProtocolKind kind = ProtocolKind::MESI;
    /// Cache intervention cost at a dirty owner (3-hop transactions).
    Cycles interventionCycles = 22;
    /// Additional serialized cost per invalidated sharer.
    Cycles invalPerSharerCycles = 4;
    /// Additional serialized cost per updated sharer (update-based
    /// protocols; an update carries data, so it is not cheaper than
    /// an invalidation).
    Cycles updatePerSharerCycles = 4;

    /// Accept "mesi" | "moesi" | "dragon" (case-sensitive).
    /// @return false (and leaves *this untouched) on unknown input.
    bool parse(std::string_view s);
    /// Round-trips through parse(): name() of a parsed config parses
    /// back to the same kind.
    std::string name() const;

    const Protocol& table() const { return Protocol::get(kind); }
};

/** Directory sharer-set representation. */
enum class DirFormat : std::uint8_t {
    FullBitVector, ///< Exact presence bit per processor.
    CoarseVector,  ///< One bit per region of `param` processors.
    LimitedPtr,    ///< Dir_iB: `param` pointers, overflow -> broadcast.
};

/**
 * Directory format choice. The simulator always keeps the exact
 * sharer set for bookkeeping; the format governs which processors an
 * invalidation/update fan-out *signals* (the over-invalidation and
 * broadcast costs of the compressed representations).
 */
struct DirectoryConfig {
    DirFormat format = DirFormat::FullBitVector;
    /// Region size K (CoarseVector) or pointer count N (LimitedPtr);
    /// ignored for FullBitVector.
    int param = 0;

    /// Accept "fullbv" | "coarse:K" | "ptr:N" with K,N >= 1.
    /// @return false (and leaves *this untouched) on unknown input.
    bool parse(std::string_view s);
    /// Round-trips through parse().
    std::string name() const;
};

} // namespace ccnuma::sim

#endif // CCNUMA_SIM_PROTOCOL_HH
