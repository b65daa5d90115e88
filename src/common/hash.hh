/**
 * @file
 * FNV-1a, the project's content hash.
 *
 * Trace provenance hashes (RecordedTrace::hashParams, which CNCKPT01
 * checks on resume), CNCKPT01 checksums and result-cache keys all use
 * this function, so a stored hash means the same thing wherever it is
 * read back. Result-cache entry checksums alone use a word-at-a-time
 * mix (farm/cache.hh): they run over megabytes of checkpoint on a
 * cell's critical path, where a byte-serial hash is too slow.
 */

#ifndef CNSIM_COMMON_HASH_HH
#define CNSIM_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>

namespace cnsim
{

/** FNV-1a 64-bit offset basis: the hash of zero bytes. */
constexpr std::uint64_t fnv1a_basis = 14695981039346656037ull;

/**
 * FNV-1a 64-bit hash of [data, data+n). Pass a previous result as
 * @p seed to continue hashing across several buffers.
 */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t seed = fnv1a_basis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace cnsim

#endif // CNSIM_COMMON_HASH_HH
