/**
 * @file
 * Tests for apps::InputCache and apps::sharedInput: single-flight
 * builds under contention, one build per key, failed-leader recovery,
 * private builds with no cache installed, and Scope nesting. Plus the
 * bounded apps::SingleFlight that ccnuma_serve's result cache uses:
 * LRU eviction and capacity 0.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/input_cache.hh"

using namespace ccnuma;
using apps::InputCache;

TEST(InputCache, SingleFlightUnderContention)
{
    InputCache cache;
    const InputCache::Scope scope(&cache);
    std::atomic<int> builds{0};
    std::vector<std::shared_ptr<const std::vector<int>>> got(8);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            const InputCache::Scope worker_scope(&cache);
            got[t] = apps::sharedInput<std::vector<int>>("k", [&] {
                builds.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                return std::vector<int>{1, 2, 3};
            });
        });
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    for (const auto& g : got) {
        ASSERT_NE(g, nullptr);
        EXPECT_EQ(g.get(), got[0].get()) << "one shared object";
        EXPECT_EQ(*g, (std::vector<int>{1, 2, 3}));
    }
    EXPECT_EQ(cache.computed(), 1u);
    EXPECT_EQ(cache.hits(), 7u);
}

TEST(InputCache, DistinctKeysBuildDistinctInputs)
{
    InputCache cache;
    const InputCache::Scope scope(&cache);
    int builds = 0;
    const auto get = [&](int v) {
        return apps::sharedInput<int>("v=" + std::to_string(v), [&] {
            ++builds;
            return v;
        });
    };
    const auto a = get(1), b = get(2), a2 = get(1);
    EXPECT_EQ(*a, 1);
    EXPECT_EQ(*b, 2);
    EXPECT_EQ(a.get(), a2.get());
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(cache.computed(), 2u);
    EXPECT_EQ(cache.hits(), 1u);

    // The same key under another type is another input.
    const auto d = apps::sharedInput<double>("v=1", [&] {
        ++builds;
        return 1.5;
    });
    EXPECT_EQ(*d, 1.5);
    EXPECT_EQ(builds, 3);
}

TEST(InputCache, FailedLeaderPromotesWaiter)
{
    InputCache cache;
    std::atomic<int> attempts{0};
    std::atomic<bool> leader_started{false};
    const auto build = [&]() -> int {
        const int n = attempts.fetch_add(1);
        if (n == 0) {
            leader_started = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            throw std::runtime_error("boom");
        }
        return 7;
    };

    std::string leader_error;
    int waiter_value = 0;
    std::thread leader([&] {
        const InputCache::Scope scope(&cache);
        try {
            apps::sharedInput<int>("k", build);
        } catch (const std::exception& e) {
            leader_error = e.what();
        }
    });
    while (!leader_started)
        std::this_thread::yield();
    std::thread waiter([&] {
        const InputCache::Scope scope(&cache);
        waiter_value = *apps::sharedInput<int>("k", build);
    });
    leader.join();
    waiter.join();

    EXPECT_EQ(leader_error, "boom") << "the error reaches the leader";
    EXPECT_EQ(waiter_value, 7) << "the waiter rebuilt as the new leader";
    EXPECT_EQ(attempts.load(), 2);

    // The rebuilt input is cached: a later call neither builds nor
    // throws.
    const InputCache::Scope scope(&cache);
    EXPECT_EQ(*apps::sharedInput<int>("k", build), 7);
    EXPECT_EQ(attempts.load(), 2);
    EXPECT_EQ(cache.computed(), 1u);
}

TEST(InputCache, NoScopeBuildsEveryCall)
{
    ASSERT_EQ(InputCache::current(), nullptr);
    int builds = 0;
    const auto build = [&] {
        ++builds;
        return std::vector<int>(4, builds);
    };
    const auto a = apps::sharedInput<std::vector<int>>("k", build);
    const auto b = apps::sharedInput<std::vector<int>>("k", build);
    EXPECT_EQ(builds, 2);
    EXPECT_NE(a.get(), b.get()) << "private copies";
    EXPECT_EQ((*a)[0], 1);
    EXPECT_EQ((*b)[0], 2);
}

TEST(InputCache, NestedScopesRestoreThePreviousCache)
{
    InputCache outer, inner;
    ASSERT_EQ(InputCache::current(), nullptr);
    {
        const InputCache::Scope s1(&outer);
        EXPECT_EQ(InputCache::current(), &outer);
        {
            const InputCache::Scope s2(&inner);
            EXPECT_EQ(InputCache::current(), &inner);
            apps::sharedInput<int>("k", [] { return 1; });
            {
                const InputCache::Scope off(nullptr);
                EXPECT_EQ(InputCache::current(), nullptr);
            }
            EXPECT_EQ(InputCache::current(), &inner);
        }
        EXPECT_EQ(InputCache::current(), &outer);
        apps::sharedInput<int>("k", [] { return 2; });
    }
    EXPECT_EQ(InputCache::current(), nullptr);
    EXPECT_EQ(inner.computed(), 1u);
    EXPECT_EQ(outer.computed(), 1u);
}

TEST(SingleFlight, LruEviction)
{
    apps::SingleFlight<std::string> cache(2);
    int computes = 0;
    const auto get = [&](const std::string& k) {
        return cache.getOrCompute(k, [&] {
            ++computes;
            return "v:" + k;
        });
    };
    get("a");
    get("b");
    get("a"); // refresh a
    // A failed leader caches nothing and neither evicts nor refreshes.
    EXPECT_THROW(cache.getOrCompute("c",
                                    []() -> std::string {
                                        throw std::runtime_error("boom");
                                    }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 2u);
    get("c"); // evicts b (LRU)
    EXPECT_EQ(computes, 3);
    EXPECT_FALSE(cache.lookup("b")) << "b was evicted";
    EXPECT_EQ(get("a"), "v:a");
    EXPECT_EQ(computes, 3) << "a was kept";
    EXPECT_EQ(get("b"), "v:b");
    EXPECT_EQ(computes, 4);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SingleFlight, ZeroCapacityDisables)
{
    apps::SingleFlight<std::string> cache(0);
    int computes = 0;
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(cache.getOrCompute("k",
                                     [&] {
                                         ++computes;
                                         return std::string("v");
                                     }),
                  "v");
    cache.insert("k", "w");
    EXPECT_EQ(computes, 3);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup("k"));
}
