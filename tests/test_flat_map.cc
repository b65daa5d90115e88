/**
 * @file
 * Unit and fuzz tests for the open-addressing FlatMap used on the
 * simulator hot paths (auditor block map, NuRAPID invariant sweep).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"

namespace cnsim
{
namespace
{

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    m[10] = 1;
    m[20] = 2;
    m[30] = 3;
    EXPECT_EQ(m.size(), 3u);
    ASSERT_NE(m.find(20), nullptr);
    EXPECT_EQ(*m.find(20), 2);
    EXPECT_EQ(m.find(40), nullptr);
    EXPECT_TRUE(m.erase(20));
    EXPECT_FALSE(m.erase(20));
    EXPECT_EQ(m.find(20), nullptr);
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, OperatorBracketDefaultConstructsAndOverwrites)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_EQ(m[5], 0); // value-initialized on first touch
    m[5] = 7;
    EXPECT_EQ(m[5], 7);
    m[5] = 9;
    EXPECT_EQ(m[5], 9);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, GrowsThroughManyInserts)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 10000; ++k)
        m[k * 0x9e3779b97f4a7c15ULL] = k;
    EXPECT_EQ(m.size(), 10000u);
    for (std::uint64_t k = 0; k < 10000; ++k) {
        auto *v = m.find(k * 0x9e3779b97f4a7c15ULL);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k);
    }
}

TEST(FlatMap, ReserveHoldsThatManyEntriesWithoutRehash)
{
    // n = 14 fills a 16-slot table exactly to its 7/8 threshold.
    for (std::uint64_t n = 1; n <= 300; ++n) {
        FlatMap<std::uint64_t, int> m;
        m.reserve(n);
        std::size_t cap = m.capacity();
        for (std::uint64_t k = 0; k < n; ++k)
            m[k * 0x9e3779b97f4a7c15ULL] = 1;
        EXPECT_EQ(m.capacity(), cap) << "n = " << n;
    }
}

TEST(FlatMap, TombstoneSlotsAreReusedWithoutGrowth)
{
    FlatMap<std::uint64_t, int> m;
    m.reserve(1024);
    std::size_t cap = m.capacity();
    // Churn far more erases+reinserts than the capacity: tombstone
    // recycling (and the same-size purge rehash) must keep the table
    // from growing.
    for (int round = 0; round < 200; ++round) {
        for (std::uint64_t k = 0; k < 512; ++k)
            m[k ^ (static_cast<std::uint64_t>(round) << 32)] = round;
        for (std::uint64_t k = 0; k < 512; ++k)
            EXPECT_TRUE(
                m.erase(k ^ (static_cast<std::uint64_t>(round) << 32)));
    }
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, FuzzAgainstUnorderedMap)
{
    // Differential fuzz: a long random op sequence over a small key
    // space (heavy collision/tombstone traffic) must match
    // std::unordered_map exactly at every step.
    std::mt19937_64 rng(0xdecafbad);
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (int op = 0; op < 200000; ++op) {
        std::uint64_t key = rng() % 701; // prime, forces reuse
        switch (rng() % 4) {
          case 0:
          case 1: { // insert/overwrite
            std::uint64_t val = rng();
            m[key] = val;
            ref[key] = val;
            break;
          }
          case 2: { // erase
            bool a = m.erase(key);
            bool b = ref.erase(key) != 0;
            ASSERT_EQ(a, b) << "erase mismatch on key " << key;
            break;
          }
          case 3: { // lookup
            auto *v = m.find(key);
            auto it = ref.find(key);
            if (it == ref.end()) {
                ASSERT_EQ(v, nullptr) << "ghost key " << key;
            } else {
                ASSERT_NE(v, nullptr) << "lost key " << key;
                ASSERT_EQ(*v, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
    // Full-content sweep both directions.
    std::size_t seen = 0;
    m.forEach([&](std::uint64_t k, const std::uint64_t &v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        ASSERT_EQ(v, it->second);
        ++seen;
    });
    EXPECT_EQ(seen, ref.size());
}

TEST(FlatMap, ClearResetsButStaysUsable)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k] = static_cast<int>(k);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(5), nullptr);
    m[5] = 55;
    ASSERT_NE(m.find(5), nullptr);
    EXPECT_EQ(*m.find(5), 55);
}

} // namespace
} // namespace cnsim
