/**
 * @file
 * Open-addressing hash map for hot-path bookkeeping.
 *
 * `std::unordered_map` pays one heap allocation and one pointer chase
 * per node; on per-access paths (the auditor's block table, the
 * NuRAPID invariant sweep) that dominates the probe cost itself.
 * FlatMap stores key/value pairs inline in a power-of-two slot array
 * with linear probing, a one-byte control array (empty / tombstone /
 * full), and tombstone-aware rehashing at 7/8 load. Iteration order is
 * unspecified -- callers that need deterministic output must sort (see
 * obs::ProtocolAuditor::runDeferredChecks).
 *
 * Requirements: K equality-comparable, K and V default-constructible
 * and assignable. The default hasher covers integral keys with a
 * splitmix64 finalizer (addresses are strided, so identity hashing
 * would cluster probes).
 */

#ifndef CNSIM_COMMON_FLAT_MAP_HH
#define CNSIM_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace cnsim
{

/** splitmix64 finalizer: full-avalanche mix for integral keys. */
struct FlatHash
{
    std::size_t
    operator()(std::uint64_t x) const
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }
};

template <typename K, typename V, typename Hash = FlatHash>
class FlatMap
{
  public:
    FlatMap() = default;

    V &
    operator[](const K &key)
    {
        maybeGrow();
        std::size_t idx = probe(key);
        if (ctrl[idx] != ctrl_full) {
            if (ctrl[idx] == ctrl_tomb)
                --tombs;
            ctrl[idx] = ctrl_full;
            slots[idx].first = key;
            slots[idx].second = V{};
            ++count;
        }
        return slots[idx].second;
    }

    [[nodiscard]] V *
    find(const K &key)
    {
        if (!count)
            return nullptr;
        std::size_t idx = findSlot(key);
        return idx == npos ? nullptr : &slots[idx].second;
    }

    [[nodiscard]] const V *
    find(const K &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool
    erase(const K &key)
    {
        if (!count)
            return false;
        std::size_t idx = findSlot(key);
        if (idx == npos)
            return false;
        ctrl[idx] = ctrl_tomb;
        slots[idx] = {};
        --count;
        ++tombs;
        return true;
    }

    [[nodiscard]] std::size_t size() const { return count; }
    [[nodiscard]] bool empty() const { return count == 0; }
    /** @return slot-array length (for load/rehash tests). */
    [[nodiscard]] std::size_t capacity() const { return slots.size(); }

    void
    clear()
    {
        ctrl.assign(ctrl.size(), ctrl_empty);
        for (auto &s : slots)
            s = {};
        count = 0;
        tombs = 0;
    }

    void
    reserve(std::size_t n)
    {
        std::size_t want = min_capacity;
        // Size so n entries stay under the 7/8 load threshold: the n-th
        // insert rehashes when n * 8 >= capacity * 7 (maybeGrow()).
        while (want * 7 <= n * 8)
            want <<= 1;
        if (want > slots.size())
            rehash(want);
    }

    /** Visit every (key, value) pair; unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < slots.size(); ++i)
            if (ctrl[i] == ctrl_full)
                fn(slots[i].first, slots[i].second);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < slots.size(); ++i)
            if (ctrl[i] == ctrl_full)
                fn(slots[i].first, slots[i].second);
    }

  private:
    static constexpr std::uint8_t ctrl_empty = 0;
    static constexpr std::uint8_t ctrl_tomb = 1;
    static constexpr std::uint8_t ctrl_full = 2;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    static constexpr std::size_t min_capacity = 16;

    /** @return the slot of @p key, or npos. */
    std::size_t
    findSlot(const K &key) const
    {
        std::size_t mask = slots.size() - 1;
        std::size_t idx = hasher(key) & mask;
        while (ctrl[idx] != ctrl_empty) {
            if (ctrl[idx] == ctrl_full && slots[idx].first == key)
                return idx;
            idx = (idx + 1) & mask;
        }
        return npos;
    }

    /**
     * @return the slot @p key occupies, or the slot an insert should
     * use (first tombstone on the probe path, else the terminating
     * empty slot). Requires a non-full table.
     */
    std::size_t
    probe(const K &key) const
    {
        std::size_t mask = slots.size() - 1;
        std::size_t idx = hasher(key) & mask;
        std::size_t first_tomb = npos;
        while (ctrl[idx] != ctrl_empty) {
            if (ctrl[idx] == ctrl_full && slots[idx].first == key)
                return idx;
            if (ctrl[idx] == ctrl_tomb && first_tomb == npos)
                first_tomb = idx;
            idx = (idx + 1) & mask;
        }
        return first_tomb != npos ? first_tomb : idx;
    }

    void
    maybeGrow()
    {
        if (slots.empty()) {
            rehash(min_capacity);
            return;
        }
        // Rehash at 7/8 load counting tombstones, so probe chains stay
        // short even under heavy erase churn. If live entries alone
        // are under half the table, rehash at the same size to purge
        // tombstones instead of doubling.
        if ((count + tombs + 1) * 8 >= slots.size() * 7)
            rehash(count * 2 >= slots.size() ? slots.size() * 2
                                             : slots.size());
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<std::uint8_t> old_ctrl = std::move(ctrl);
        std::vector<std::pair<K, V>> old_slots = std::move(slots);
        ctrl.assign(new_cap, ctrl_empty);
        slots.assign(new_cap, {});
        tombs = 0;
        std::size_t mask = new_cap - 1;
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (old_ctrl[i] != ctrl_full)
                continue;
            std::size_t idx = hasher(old_slots[i].first) & mask;
            while (ctrl[idx] == ctrl_full)
                idx = (idx + 1) & mask;
            ctrl[idx] = ctrl_full;
            slots[idx] = std::move(old_slots[i]);
        }
    }

    std::vector<std::uint8_t> ctrl;
    std::vector<std::pair<K, V>> slots;
    std::size_t count = 0;
    std::size_t tombs = 0;
    [[no_unique_address]] Hash hasher;
};

} // namespace cnsim

#endif // CNSIM_COMMON_FLAT_MAP_HH
