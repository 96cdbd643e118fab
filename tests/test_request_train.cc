/**
 * @file
 * Exactness of request trains (mmu/mem_request.hh): a seeded random
 * schedule driven once through Hops and once as one plain event per
 * request must execute the same (tick, id) log.  The schedule mixes
 * foreign events filed into a tick between pushes, delay-0 pushes from
 * inside a running train, requests re-entering their own hop while
 * their train runs, and ticks beyond the wheel horizon.
 *
 * Also pins events per line access on whole runs, so a hop that stops
 * batching (or an extra hop) fails a bound instead of drifting.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "mmu/designs.hh"
#include "mmu/mem_request.hh"
#include "sim/rng.hh"

namespace gvc
{
namespace
{

/** Ids of foreign (non-request) events in the log. */
constexpr std::int64_t kForeign = -1;

/**
 * One random schedule over two hops.  With @c trains the hops are Hops;
 * without, every push is its own event.  Every decision draws from one
 * Rng in execution order, so equal logs mean equal order throughout.
 */
class TrainSchedule
{
  public:
    using Log = std::vector<std::pair<Tick, std::int64_t>>;

    TrainSchedule(std::uint64_t seed, bool trains)
        : rng_(seed), trains_(trains), reqs_(kRequests), visits_(kRequests)
    {
        for (unsigned i = 0; i < kRequests; ++i)
            reqs_[i].cu = i;
    }

    /** Run the whole schedule; @return the execution log. */
    Log
    run()
    {
        // Bursts of fresh requests at scattered ticks, some beyond the
        // horizon, each pushed from a driver event at that tick.
        for (unsigned burst = 0; burst < 24; ++burst) {
            const Tick when = rng_.below(3) == 0 ? rng_.range(4000, 13000)
                                                 : rng_.below(200);
            eq_.schedule(when, [this] { pushBurst(); });
        }
        // Pushes made now for far ticks: their events start beyond the
        // horizon and migrate.
        for (unsigned i = 0; i < 4; ++i)
            pushFresh(9000 + rng_.below(3));
        eq_.run();
        return log_;
    }

    std::uint64_t executed() const { return eq_.executed(); }

    void hopA(MemRequest *r) { visit(0, r); }
    void hopB(MemRequest *r) { visit(1, r); }

  private:
    static constexpr unsigned kRequests = 400;
    static constexpr unsigned kMaxVisits = 10;

    void
    push(unsigned hop, Tick when, MemRequest *r)
    {
        if (!trains_)
            eq_.schedule(when, [this, hop, r] { visit(hop, r); });
        else if (hop == 0)
            a_.at(when, r);
        else
            b_.at(when, r);
    }

    /** Push the next unused request to a random hop at @p when. */
    void
    pushFresh(Tick when)
    {
        if (next_fresh_ < kRequests) {
            const unsigned hop = unsigned(rng_.below(2));
            push(hop, when, &reqs_[next_fresh_++]);
        }
    }

    void
    foreign(Tick when)
    {
        eq_.schedule(when, [this] {
            log_.emplace_back(eq_.now(), kForeign);
            // Sometimes a foreign event starts a request of its own.
            if (rng_.below(3) == 0)
                pushFresh(eq_.now() + delay());
        });
    }

    /** 0 often, short, medium, or straddling the 4096-tick horizon. */
    Tick
    delay()
    {
        switch (rng_.below(8)) {
          case 0:
          case 1:
            return 0;
          case 2:
          case 3:
          case 4:
            return rng_.range(1, 3);
          case 5:
            return rng_.range(4, 60);
          default:
            return rng_.range(4090, 4200);
        }
    }

    /** A driver event: several pushes to one tick, foreigners between. */
    void
    pushBurst()
    {
        const Tick when = eq_.now() + delay();
        const unsigned n = unsigned(rng_.range(1, 14));
        for (unsigned i = 0; i < n; ++i) {
            if (rng_.below(4) == 0)
                foreign(when);
            pushFresh(when);
        }
    }

    void
    visit(unsigned hop, MemRequest *r)
    {
        const unsigned id = r->cu;
        log_.emplace_back(eq_.now(), std::int64_t(2 * id + hop));
        if (++visits_[id] >= kMaxVisits)
            return;
        const unsigned roll = unsigned(rng_.below(100));
        if (rng_.below(5) == 0)
            foreign(eq_.now() + (rng_.below(2) ? 0 : delay()));
        if (roll < 40) {
            // Re-enter the same hop, often at delay 0 while the train
            // that carried us is still running.
            push(hop, eq_.now() + delay(), r);
        } else if (roll < 75) {
            push(1 - hop, eq_.now() + delay(), r);
        }
        // Otherwise the request retires.
    }

    EventQueue eq_;
    Rng rng_;
    bool trains_;
    std::vector<MemRequest> reqs_;
    std::vector<unsigned> visits_;
    unsigned next_fresh_ = 0;
    Log log_;
    Hop<TrainSchedule, &TrainSchedule::hopA> a_{eq_, *this};
    Hop<TrainSchedule, &TrainSchedule::hopB> b_{eq_, *this};
};

TEST(RequestTrain, RandomSchedulesRunInPlainEventOrder)
{
    std::uint64_t plain_events = 0, train_events = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        TrainSchedule plain(seed, false), trains(seed, true);
        const auto want = plain.run();
        const auto got = trains.run();
        ASSERT_GT(want.size(), 400u) << "seed " << seed;
        ASSERT_EQ(got, want) << "seed " << seed;
        plain_events += plain.executed();
        train_events += trains.executed();
    }
    // The schedules do form trains.
    EXPECT_LT(train_events, plain_events);
}

/** Records the requests it sees, and re-pushes those it is told to. */
struct Recorder
{
    EventQueue eq;
    std::vector<std::pair<Tick, unsigned>> seen;
    std::vector<unsigned> reenter; ///< Per id: times left to re-enter.

    void
    hit(MemRequest *r)
    {
        seen.emplace_back(eq.now(), r->cu);
        if (reenter[r->cu]) {
            --reenter[r->cu];
            hop.in(0, r);
        }
    }

    Hop<Recorder, &Recorder::hit> hop{eq, *this};
};

TEST(RequestTrain, SameTickPushesShareOneEvent)
{
    Recorder rec;
    std::vector<MemRequest> reqs(13);
    rec.reenter.assign(reqs.size(), 0);
    for (unsigned i = 0; i < reqs.size(); ++i) {
        reqs[i].cu = i;
        rec.hop.at(5, &reqs[i]);
    }
    rec.eq.run();
    ASSERT_EQ(rec.seen.size(), reqs.size());
    for (unsigned i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(rec.seen[i], (std::pair<Tick, unsigned>{5, i}));
    EXPECT_EQ(rec.eq.executed(), 1u);
}

TEST(RequestTrain, AForeignEventSplitsTheTrain)
{
    Recorder rec;
    std::vector<MemRequest> reqs(2);
    rec.reenter.assign(reqs.size(), 0);
    reqs[0].cu = 0;
    reqs[1].cu = 1;
    bool foreign_ran = false;
    rec.hop.at(4, &reqs[0]);
    rec.eq.schedule(4, [&] {
        EXPECT_EQ(rec.seen.size(), 1u);
        foreign_ran = true;
    });
    rec.hop.at(4, &reqs[1]);
    rec.eq.run();
    EXPECT_TRUE(foreign_ran);
    EXPECT_EQ(rec.seen.size(), 2u);
    EXPECT_EQ(rec.eq.executed(), 3u);
}

TEST(RequestTrain, ARequestReenteringItsHopRunsBehindItsTrain)
{
    // Request 0 re-enters the hop at delay 0 while its train runs: the
    // train is closed by then, so it runs after requests 1 and 2.
    Recorder rec;
    std::vector<MemRequest> reqs(3);
    rec.reenter = {1, 0, 0};
    for (unsigned i = 0; i < reqs.size(); ++i) {
        reqs[i].cu = i;
        rec.hop.at(2, &reqs[i]);
    }
    rec.eq.run();
    const std::vector<std::pair<Tick, unsigned>> want = {
        {2, 0}, {2, 1}, {2, 2}, {2, 0}};
    EXPECT_EQ(rec.seen, want);
    EXPECT_EQ(rec.eq.executed(), 2u);
}

// --- events per line access on whole runs ---

struct EventsBound
{
    MmuDesign design;
    double max_events_per_access;
};

/**
 * Bounds are the value measured on pagerank at scale 0.05 (default
 * seed) plus about 3%: IDEAL 1.251, Baseline 512 2.235, L1-Only VC (32)
 * 2.252, VC With OPT 1.281.  With one event per request and hop they
 * were 3.11, 4.84, 4.56 and 3.15.  A hop that stops batching, or one
 * more hop, breaks its bound.
 */
constexpr EventsBound kEventsBounds[] = {
    {MmuDesign::kIdeal, 1.29},
    {MmuDesign::kBaseline512, 2.30},
    {MmuDesign::kL1Vc32, 2.32},
    {MmuDesign::kVcOpt, 1.32},
};

class EventsPerLineAccess : public ::testing::TestWithParam<EventsBound>
{
};

TEST_P(EventsPerLineAccess, StaysUnderItsBound)
{
    const EventsBound b = GetParam();
    RunConfig cfg;
    cfg.design = b.design;
    cfg.workload.scale = 0.05;
    std::uint64_t events = 0;
    const RunResult r = runWorkload(
        "pagerank", cfg, [&](SystemUnderTest &, Gpu &, SimContext &ctx) {
            events = ctx.eq.executed();
        });
    ASSERT_GT(r.l1_accesses, 0u);
    const double per_access = double(events) / double(r.l1_accesses);
    EXPECT_LT(per_access, b.max_events_per_access)
        << designName(b.design) << ": " << events << " events for "
        << r.l1_accesses << " line accesses";
}

INSTANTIATE_TEST_SUITE_P(
    GraphDesigns, EventsPerLineAccess, ::testing::ValuesIn(kEventsBounds),
    [](const ::testing::TestParamInfo<EventsBound> &info) {
        std::string name;
        for (const char c : std::string(designName(info.param.design)))
            if (std::isalnum(static_cast<unsigned char>(c)))
                name += c;
        return name;
    });

} // namespace
} // namespace gvc
