/**
 * @file
 * Equivalence tests for the RT unit's calendar event queue against a
 * std::priority_queue reference model (the exact structure the RT unit
 * used before the calendar queue), driven by scripted adversarial
 * scenarios and seeded random schedules shaped like the simulator's
 * access pattern.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "rtunit/event_queue.hpp"

namespace rtp {
namespace {

/** The pre-calendar implementation, verbatim: a min (cycle, order) heap. */
using ReferenceQueue =
    std::priority_queue<RtEvent, std::vector<RtEvent>,
                        std::greater<RtEvent>>;

/** Pop both queues to exhaustion, asserting identical sequences. */
void
drainAndCompare(EventQueue &q, ReferenceQueue &ref)
{
    while (!ref.empty()) {
        ASSERT_FALSE(q.empty());
        RtEvent want = ref.top();
        ref.pop();
        EXPECT_EQ(q.nextCycle(), want.cycle);
        RtEvent got = q.pop();
        ASSERT_EQ(got.cycle, want.cycle);
        ASSERT_EQ(got.order, want.order);
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopsInCycleThenOrderSequence)
{
    EventQueue q;
    ReferenceQueue ref;
    // Same cycle, shuffled orders; then a later cycle.
    for (std::uint64_t ord : {5ull, 1ull, 3ull, 0ull, 4ull, 2ull}) {
        RtEvent ev{10, ord, RtEventKind::WarpStep,
                   static_cast<std::uint32_t>(ord)};
        q.push(ev);
        ref.push(ev);
    }
    RtEvent late{4000, 0, RtEventKind::WarpStep, 9};
    q.push(late);
    ref.push(late);
    drainAndCompare(q, ref);
}

TEST(EventQueue, OverflowEventCanComeDueBeforeRingEvents)
{
    // Regression scenario for the subtle case: an event parked in the
    // overflow store (scheduled > 1024 cycles ahead at push time) must
    // still pop BEFORE a ring event with a larger cycle that was pushed
    // later, once the window has advanced past it.
    EventQueue q;
    ReferenceQueue ref;
    std::uint64_t ord = 0;

    auto both = [&](Cycle c) {
        RtEvent ev{c, ord++, RtEventKind::WarpStep, 0};
        q.push(ev);
        ref.push(ev);
    };

    both(0);
    both(5000); // lands in overflow (0 + 1024 horizon)
    // March the window forward in sub-horizon hops to ~4990, so 5000 is
    // STILL in overflow while the window covers [4990, 6014).
    Cycle c = 0;
    while (c < 4990) {
        RtEvent got = q.pop();
        RtEvent want = ref.top();
        ref.pop();
        ASSERT_EQ(got.cycle, want.cycle);
        ASSERT_EQ(got.order, want.order);
        c = got.cycle + 997;
        if (c < 4990)
            both(c);
    }
    both(6000); // enters the RING, beyond the overflow event's 5000
    drainAndCompare(q, ref); // must yield ... 5000, 6000
}

TEST(EventQueue, DuplicateCollectorFlushOrdersAreHandled)
{
    EventQueue q;
    ReferenceQueue ref;
    // Duplicate CollectorFlush events are bitwise identical in the
    // simulator; the queue may return them in any relative order.
    for (int i = 0; i < 3; ++i) {
        RtEvent ev{50, ~0ull, RtEventKind::CollectorFlush, 0};
        q.push(ev);
        ref.push(ev);
    }
    RtEvent step{50, 7, RtEventKind::WarpStep, 1};
    q.push(step);
    ref.push(step);
    drainAndCompare(q, ref);
}

TEST(EventQueue, RandomizedSchedulesMatchReference)
{
    // Shaped like the simulator's pattern: pops are non-decreasing in
    // cycle, pushes are >= the current cycle, mostly near-future with a
    // tail of far-future (overflow) events.
    for (std::uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
        std::mt19937 rng(seed);
        EventQueue q;
        ReferenceQueue ref;
        std::uint64_t ord = 0;
        Cycle now = 0;

        auto push_at = [&](Cycle c) {
            RtEvent ev{c, ord++, RtEventKind::WarpStep,
                       static_cast<std::uint32_t>(rng() % 16)};
            q.push(ev);
            ref.push(ev);
        };
        for (int i = 0; i < 32; ++i)
            push_at(rng() % 64);

        for (int step = 0; step < 4000 && !ref.empty(); ++step) {
            ASSERT_EQ(q.size(), ref.size());
            RtEvent want = ref.top();
            ref.pop();
            RtEvent got = q.pop();
            ASSERT_EQ(got.cycle, want.cycle) << "seed " << seed;
            ASSERT_EQ(got.order, want.order) << "seed " << seed;
            now = got.cycle;

            // 0-2 new events, mostly near, sometimes far (overflow),
            // sometimes same-cycle (ties with unique orders).
            int n = static_cast<int>(rng() % 3);
            for (int k = 0; k < n; ++k) {
                std::uint32_t r = rng() % 100;
                Cycle c;
                if (r < 10)
                    c = now; // same-cycle reschedule
                else if (r < 85)
                    c = now + 1 + rng() % 600; // in-window
                else
                    c = now + 1500 + rng() % 8000; // overflow
                push_at(c);
            }
        }
        drainAndCompare(q, ref);
    }
}

} // namespace
} // namespace rtp
