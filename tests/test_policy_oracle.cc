/**
 * @file
 * Differential oracle tests for the dead-entry-aware TLB policy
 * subsystem.  A deliberately naive reference model — per-set vectors,
 * no memo, no per-class probe gating, the policy spec transcribed in
 * the most literal way possible — is stepped in lockstep with the
 * optimized `Tlb` over seeded random probe / fill / shootdown /
 * reach-merge sequences, across every (replacement x fill-policy)
 * combination: true LRU, SRRIP, BRRIP, set-dueling DRRIP crossed with
 * install-all, static next-line bypass, and the trained dead-entry
 * predictor (bypass + sampling installs + dead-first victims).
 *
 * Every lookup outcome, every counter (fills, bypasses, dead-first
 * evictions, predictor true/false positives, merges), the residency
 * set, and the TlbRefHist must agree at every checkpoint; the first
 * divergence names the step that caused it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "sim/rng.hh"
#include "tlb/dead_pred.hh"
#include "tlb/tlb.hh"

namespace gvc
{
namespace
{

/**
 * Naive reference model of Tlb for finite configurations.  Mirrors
 * the documented policy semantics operation for operation (including
 * iteration orders, which the trained predictor's saturating counters
 * can observe) but shares none of Tlb's fast-path machinery.
 */
class PolicyOracle
{
  public:
    struct OEntry
    {
        Asid asid;
        Vpn vpn; ///< Base VPN, aligned to reach.
        Ppn ppn;
        Perms perms;
        bool large;
        unsigned reach;
        std::uint64_t lru;
        std::uint32_t refs = 0;
        std::uint8_t rrpv = 0;
        bool sampled = false;
    };

    PolicyOracle(const TlbParams &params, unsigned sets, unsigned assoc)
        : p_(params), num_sets_(sets), assoc_(assoc), sets_(sets)
    {
        if (p_.max_reach > kMaxReachLog2)
            p_.max_reach = kMaxReachLog2;
    }

    std::optional<TlbLookup>
    lookup(Asid asid, Vpn vpn)
    {
        ++accesses;
        for (unsigned r = 0; r <= kMaxReachLog2; ++r) {
            const Vpn base = reachBase(vpn, r);
            auto &set = sets_[setIndex(base, r)];
            for (auto &e : set) {
                if (e.reach == r && e.asid == asid && e.vpn == base) {
                    ++hits;
                    if (r > 0)
                        ++reach_hits;
                    e.lru = ++lru_clock_;
                    e.rrpv = 0;
                    ++e.refs;
                    return TlbLookup{e.ppn + (vpn - e.vpn), e.perms,
                                     e.large, std::uint8_t(e.reach),
                                     e.vpn, e.ppn};
                }
            }
        }
        ++misses;
        return std::nullopt;
    }

    bool
    present(Asid asid, Vpn vpn) const
    {
        for (unsigned r = 0; r <= kMaxReachLog2; ++r) {
            const Vpn base = reachBase(vpn, r);
            const auto &set = sets_[setIndex(base, r)];
            for (const auto &e : set)
                if (e.reach == r && e.asid == asid && e.vpn == base)
                    return true;
        }
        return false;
    }

    void
    insert(Asid asid, Vpn vpn, const TlbLookup &xlate)
    {
        bool sampled = false;
        if (p_.fill_policy == kTlbFillBypassDead && xlate.reach == 0) {
            const bool seq = asid == pred_asid_ && vpn == pred_vpn_ + 1;
            pred_asid_ = asid;
            pred_vpn_ = vpn;
            if (seq) {
                ++bypasses;
                return;
            }
        } else if (p_.fill_policy == kTlbFillBypassTrained &&
                   xlate.reach == 0 &&
                   dead_pred_.predictDead(asid, vpn)) {
            if (!dead_pred_.sampleFill()) {
                ++bypasses;
                return;
            }
            sampled = true;
        }
        ++fills;
        unsigned r = xlate.reach;
        Vpn base = xlate.base_vpn;
        Ppn base_ppn = xlate.base_ppn;
        if (r == 0 || r > p_.max_reach) {
            r = 0;
            base = vpn;
            base_ppn = xlate.ppn;
        }
        if (r > 0)
            ++reach_fills;
        installEntry(asid, base, base_ppn, xlate.perms, xlate.large, r,
                     sampled);
        if (p_.merge_on_insert)
            tryMerge(asid, base, r);
    }

    bool
    invalidatePage(Asid asid, Vpn vpn)
    {
        bool any = false;
        for (unsigned r = 0; r <= kMaxReachLog2; ++r) {
            const Vpn base = reachBase(vpn, r);
            auto &set = sets_[setIndex(base, r)];
            for (std::size_t i = 0; i < set.size(); ++i) {
                if (set[i].reach == r && set[i].asid == asid &&
                    set[i].vpn == base) {
                    retire(set[i]);
                    set.erase(set.begin() + long(i));
                    any = true;
                    break;
                }
            }
        }
        return any;
    }

    void
    invalidateAsid(Asid asid)
    {
        for (auto &set : sets_) {
            for (std::size_t i = set.size(); i-- > 0;) {
                if (set[i].asid == asid) {
                    retire(set[i]);
                    set.erase(set.begin() + long(i));
                }
            }
        }
    }

    void
    invalidateAll()
    {
        for (auto &set : sets_) {
            for (auto &e : set)
                retire(e);
            set.clear();
        }
    }

    void
    flushResidentRefs()
    {
        for (const auto &set : sets_)
            for (const auto &e : set)
                ref_hist.record(e.refs);
    }

    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t dead_first = 0;
    std::uint64_t pred_true_pos = 0;
    std::uint64_t pred_false_pos = 0;
    std::uint64_t merges = 0;
    std::uint64_t reach_hits = 0;
    std::uint64_t reach_fills = 0;
    TlbRefHist ref_hist;

  private:
    std::size_t
    setIndex(Vpn base, unsigned r) const
    {
        return (base >> r) % num_sets_;
    }

    std::uint8_t
    insertRrpv(std::size_t si)
    {
        unsigned pol = p_.replacement;
        if (pol == kTlbReplDrrip) {
            if (si % 32 == 0) {
                if (psel_ < 1023)
                    ++psel_;
                pol = kTlbReplSrrip;
            } else if (si % 32 == 1) {
                if (psel_ > 0)
                    --psel_;
                pol = kTlbReplBrrip;
            } else {
                pol = psel_ > 512 ? kTlbReplBrrip : kTlbReplSrrip;
            }
        }
        if (pol == kTlbReplSrrip)
            return 2;
        return (brrip_counter_++ % 32) == 0 ? 2 : 3;
    }

    std::size_t
    pickVictim(std::vector<OEntry> &set)
    {
        if (p_.fill_policy == kTlbFillBypassTrained) {
            for (std::size_t i = 0; i < set.size(); ++i) {
                const OEntry &e = set[i];
                if (e.reach == 0 && e.refs == 0 &&
                    dead_pred_.predictDead(e.asid, e.vpn)) {
                    ++dead_first;
                    return i;
                }
            }
        }
        if (p_.replacement == kTlbReplLru) {
            std::size_t victim = 0;
            for (std::size_t i = 1; i < set.size(); ++i)
                if (set[i].lru < set[victim].lru)
                    victim = i;
            return victim;
        }
        for (;;) {
            for (std::size_t i = 0; i < set.size(); ++i)
                if (set[i].rrpv >= 3)
                    return i;
            for (auto &e : set)
                ++e.rrpv;
        }
    }

    OEntry
    makeEntry(Asid asid, Vpn base, Ppn ppn, Perms perms, bool large,
              unsigned r, std::size_t si, bool sampled)
    {
        OEntry e{asid, base, ppn, perms, large, r, ++lru_clock_,
                 0,    0,    false};
        e.rrpv = p_.replacement == kTlbReplLru ? 0 : insertRrpv(si);
        e.sampled = sampled;
        return e;
    }

    void
    installEntry(Asid asid, Vpn base, Ppn ppn, Perms perms, bool large,
                 unsigned r, bool sampled = false)
    {
        const std::size_t si = setIndex(base, r);
        auto &set = sets_[si];
        for (auto &e : set) {
            if (e.reach == r && e.asid == asid && e.vpn == base) {
                e.ppn = ppn;
                e.perms = perms;
                e.large = large;
                e.lru = ++lru_clock_;
                e.rrpv = 0;
                return;
            }
        }
        if (set.size() < assoc_) {
            set.push_back(
                makeEntry(asid, base, ppn, perms, large, r, si, sampled));
            return;
        }
        const std::size_t victim = pickVictim(set);
        retire(set[victim]);
        set[victim] =
            makeEntry(asid, base, ppn, perms, large, r, si, sampled);
    }

    std::optional<OEntry>
    findEntry(Asid asid, Vpn base, unsigned r) const
    {
        const auto &set = sets_[setIndex(base, r)];
        for (const auto &e : set)
            if (e.reach == r && e.asid == asid && e.vpn == base)
                return e;
        return std::nullopt;
    }

    void
    removeEntry(Asid asid, Vpn base, unsigned r)
    {
        auto &set = sets_[setIndex(base, r)];
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i].reach == r && set[i].asid == asid &&
                set[i].vpn == base) {
                retire(set[i]);
                set.erase(set.begin() + long(i));
                return;
            }
        }
    }

    void
    tryMerge(Asid asid, Vpn base, unsigned r)
    {
        while (r < p_.max_reach) {
            const auto self = findEntry(asid, base, r);
            if (!self)
                return;
            const Vpn buddy_base = base ^ reachPages(r);
            const auto buddy = findEntry(asid, buddy_base, r);
            if (!buddy || buddy->perms != self->perms ||
                buddy->large != self->large)
                return;
            const OEntry &lo = base < buddy_base ? *self : *buddy;
            const OEntry &hi = base < buddy_base ? *buddy : *self;
            if (lo.ppn + reachPages(r) != hi.ppn)
                return;
            const Vpn merged_base = lo.vpn;
            const Ppn merged_ppn = lo.ppn;
            const Perms perms = lo.perms;
            const bool large = lo.large;
            removeEntry(asid, base, r);
            removeEntry(asid, buddy_base, r);
            ++merges;
            installEntry(asid, merged_base, merged_ppn, perms, large,
                         r + 1);
            base = merged_base;
            ++r;
        }
    }

    void
    retire(const OEntry &e)
    {
        ref_hist.record(e.refs);
        if (p_.fill_policy == kTlbFillBypassTrained && e.reach == 0) {
            dead_pred_.train(e.asid, e.vpn, e.refs == 0);
            if (e.sampled) {
                if (e.refs == 0)
                    ++pred_true_pos;
                else
                    ++pred_false_pos;
            }
        }
    }

    TlbParams p_;
    std::size_t num_sets_;
    unsigned assoc_;
    std::vector<std::vector<OEntry>> sets_;
    std::uint64_t lru_clock_ = 0;
    Asid pred_asid_ = 0;
    Vpn pred_vpn_ = kInvalidVpn;
    DeadPredictor dead_pred_;
    unsigned psel_ = 512;
    std::uint64_t brrip_counter_ = 0;
};

/** Deterministic frame for a VPN; constant offset keeps buddy frames
 *  physically contiguous so the merge ladder actually fires. */
Ppn
ppnOf(Vpn vpn)
{
    return vpn + 0x10000;
}

/** Deterministic perms/large per VPN (so re-fills are consistent but
 *  buddy halves sometimes mismatch and the merge guards trigger). */
Perms
permsOf(Vpn vpn)
{
    return (vpn % 7 == 0) ? Perms(kPermRead | kPermWrite)
                          : Perms(kPermRead);
}

bool
largeOf(Vpn vpn)
{
    return vpn % 13 == 0;
}

// Parameters: entries, assoc, replacement, fill policy, reach mode.
using OracleParam =
    std::tuple<unsigned, unsigned, unsigned, unsigned, bool>;

class TlbPolicyOracle : public ::testing::TestWithParam<OracleParam>
{
};

TEST_P(TlbPolicyOracle, LockstepWithNaiveModel)
{
    const auto [entries, assoc, repl, fill, reach] = GetParam();
    TlbParams p{entries, assoc, false, false};
    p.replacement = repl;
    p.fill_policy = fill;
    if (reach) {
        p.max_reach = 3;
        p.merge_on_insert = true;
    }
    Tlb tlb(p);
    PolicyOracle oracle(p, tlb.numSets(), tlb.assoc());
    Rng rng(entries * 131 + assoc * 29 + repl * 7 + fill * 3 +
            unsigned(reach));

    const auto checkpoint = [&](int step) {
        ASSERT_EQ(tlb.accesses(), oracle.accesses) << "step " << step;
        ASSERT_EQ(tlb.hits(), oracle.hits) << "step " << step;
        ASSERT_EQ(tlb.misses(), oracle.misses) << "step " << step;
        ASSERT_EQ(tlb.fills(), oracle.fills) << "step " << step;
        const StatSnapshot s = snapshotOf(tlb);
        ASSERT_EQ(s.get("fill_bypasses"), oracle.bypasses)
            << "step " << step;
        ASSERT_EQ(s.get("dead_first_evictions"), oracle.dead_first)
            << "step " << step;
        ASSERT_EQ(s.get("pred_true_pos"), oracle.pred_true_pos)
            << "step " << step;
        ASSERT_EQ(s.get("pred_false_pos"), oracle.pred_false_pos)
            << "step " << step;
        ASSERT_EQ(s.get("merges"), oracle.merges) << "step " << step;
        ASSERT_EQ(s.get("reach_hits"), oracle.reach_hits)
            << "step " << step;
        ASSERT_EQ(s.get("reach_fills"), oracle.reach_fills)
            << "step " << step;
        ASSERT_EQ(tlb.refHist(), oracle.ref_hist) << "step " << step;
    };

    for (int step = 0; step < 8000; ++step) {
        const Asid asid = Asid(1 + rng.below(2));
        const Vpn vpn = rng.below(1024);
        const auto op = rng.below(24);
        if (op < 10) {
            const auto got = tlb.lookup(asid, vpn, Tick(step));
            const auto want = oracle.lookup(asid, vpn);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "lookup divergence at step " << step << " vpn "
                << vpn;
            if (got) {
                ASSERT_EQ(got->ppn, want->ppn) << "step " << step;
                ASSERT_EQ(got->perms, want->perms) << "step " << step;
                ASSERT_EQ(got->reach, want->reach) << "step " << step;
                ASSERT_EQ(got->base_vpn, want->base_vpn)
                    << "step " << step;
                ASSERT_EQ(got->base_ppn, want->base_ppn)
                    << "step " << step;
            }
        } else if (op < 20) {
            TlbLookup x;
            if (reach && rng.chance(0.25)) {
                // A pre-coalesced wide fill, as Iommu::fillFor shapes
                // them: aligned base, contiguous frames.
                const unsigned r = unsigned(1 + rng.below(3));
                const Vpn base = reachBase(vpn, r);
                x = TlbLookup{ppnOf(vpn), permsOf(base), largeOf(base),
                              std::uint8_t(r), base, ppnOf(base)};
            } else {
                x = TlbLookup{ppnOf(vpn), permsOf(vpn), largeOf(vpn)};
            }
            tlb.insert(asid, vpn, x, Tick(step));
            oracle.insert(asid, vpn, x);
        } else if (op < 22) {
            const bool got = tlb.invalidatePage(asid, vpn, Tick(step));
            const bool want = oracle.invalidatePage(asid, vpn);
            ASSERT_EQ(got, want)
                << "shootdown divergence at step " << step;
        } else if (op == 22) {
            if (rng.chance(0.05)) {
                tlb.invalidateAsid(asid, Tick(step));
                oracle.invalidateAsid(asid);
            }
        } else {
            if (rng.chance(0.02)) {
                tlb.invalidateAll(Tick(step));
                oracle.invalidateAll();
            }
        }
        if (step % 512 == 0) {
            checkpoint(step);
            // ASSERT inside a lambda only exits the lambda; stop the
            // op loop at the first divergent checkpoint ourselves.
            if (::testing::Test::HasFatalFailure())
                return;
        }
        if (step % 2048 == 0) {
            for (Vpn v = 0; v < 192; ++v) {
                for (Asid a : {Asid(1), Asid(2)}) {
                    ASSERT_EQ(tlb.present(a, v), oracle.present(a, v))
                        << "residency divergence at step " << step
                        << " asid " << unsigned(a) << " vpn " << v;
                }
            }
        }
    }
    checkpoint(8000);
    tlb.flushResidentRefs();
    oracle.flushResidentRefs();
    ASSERT_EQ(tlb.refHist(), oracle.ref_hist) << "final flushed hist";
}

// Geometries: a set-associative mid-size, a small near-full-assoc, and
// a 128-set shape so DRRIP has real SRRIP and BRRIP leader sets plus
// followers.  Crossed with every replacement x fill policy, with and
// without the reach/merge machinery.
INSTANTIATE_TEST_SUITE_P(
    PolicyMatrix, TlbPolicyOracle,
    ::testing::Combine(
        ::testing::Values(64u, 256u), ::testing::Values(4u, 2u),
        ::testing::Values(kTlbReplLru, kTlbReplSrrip, kTlbReplBrrip,
                          kTlbReplDrrip),
        ::testing::Values(kTlbFillLru, kTlbFillBypassDead,
                          kTlbFillBypassTrained),
        ::testing::Bool()));

// A fully-associative geometry (assoc = 0 selects it) stepped through
// the trained predictor: one set means dead-first victim selection and
// RRIP aging act on the whole array.
TEST(TlbPolicyOracleFullAssoc, TrainedBypassLockstep)
{
    TlbParams p{32, 0, false, false};
    p.replacement = kTlbReplSrrip;
    p.fill_policy = kTlbFillBypassTrained;
    Tlb tlb(p);
    PolicyOracle oracle(p, tlb.numSets(), tlb.assoc());
    Rng rng(977);
    for (int step = 0; step < 6000; ++step) {
        const Vpn vpn = rng.below(256);
        if (rng.below(2) == 0) {
            const auto got = tlb.lookup(1, vpn, Tick(step));
            const auto want = oracle.lookup(1, vpn);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "step " << step;
        } else {
            const TlbLookup x{ppnOf(vpn), permsOf(vpn), largeOf(vpn)};
            tlb.insert(1, vpn, x, Tick(step));
            oracle.insert(1, vpn, x);
        }
    }
    const StatSnapshot s = snapshotOf(tlb);
    EXPECT_EQ(s.get("fill_bypasses"), oracle.bypasses);
    EXPECT_EQ(s.get("dead_first_evictions"), oracle.dead_first);
    EXPECT_EQ(s.get("pred_true_pos"), oracle.pred_true_pos);
    EXPECT_EQ(s.get("pred_false_pos"), oracle.pred_false_pos);
    tlb.flushResidentRefs();
    oracle.flushResidentRefs();
    EXPECT_EQ(tlb.refHist(), oracle.ref_hist);
}

// The DeadPredictor itself: threshold, saturation, and the sampling
// cadence are the contract both the Tlb and the oracle rely on.
TEST(DeadPredictor, ThresholdSaturationAndSampling)
{
    DeadPredictor p;
    EXPECT_FALSE(p.predictDead(1, 0));
    p.train(1, 0, true);
    EXPECT_FALSE(p.predictDead(1, 0)); // counter 1 < threshold 2
    p.train(1, 0, true);
    EXPECT_TRUE(p.predictDead(1, 0)); // counter 2
    p.train(1, 0, true);
    p.train(1, 0, true); // saturates at 3
    p.train(1, 0, false);
    EXPECT_TRUE(p.predictDead(1, 0)); // 3 -> 2, still dead
    p.train(1, 0, false);
    EXPECT_FALSE(p.predictDead(1, 0)); // 2 -> 1
    // Pages of one region share a counter; a different region (or
    // ASID) hashes elsewhere for these inputs.
    p.train(1, 0, true);
    EXPECT_TRUE(p.predictDead(1, 0)); // 1 -> 2, back at threshold
    p.train(1, 1, true);
    EXPECT_TRUE(p.predictDead(1, 63)); // same 64-page region
    EXPECT_FALSE(p.predictDead(1, 64)); // next region
    // Sampling: first predicted-dead fill installs, next seven bypass.
    DeadPredictor q;
    EXPECT_TRUE(q.sampleFill());
    for (int i = 0; i < 7; ++i)
        EXPECT_FALSE(q.sampleFill()) << i;
    EXPECT_TRUE(q.sampleFill());
}

} // namespace
} // namespace gvc
