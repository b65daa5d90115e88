/**
 * @file
 * Content-addressed result and checkpoint cache (DESIGN.md 3l).
 *
 * One directory, two entry kinds, both addressed by the FNV-1a content
 * keys of farm/cell.hh:
 *  - `r-<key>.cnf`: a cell's serialized RunResult under cellKey();
 *  - `c-<key>.cnf`: a warmed CNCKPT01 blob under ckptKey().
 *
 * Entry layout (integers little-endian):
 *   8 bytes "CNFARM01"          magic
 *   u32 payload_len             at most 256 MiB
 *   u8  kind                    'r' or 'c'
 *   payload_len bytes           payload
 *   u64 checksum                over the kind byte + payload (below)
 *
 * The checksum folds 64-bit words with mix(h, w) = (h ^ w) *
 * 0x9e3779b97f4a7c15, then h ^= h >> 32: first the kind byte from
 * h = 0, then each 8-byte little-endian payload word in order (a final
 * partial word zero-padded), then payload_len; MurmurHash3's fmix64
 * of the result is stored. Every step is a bijection of h, so any
 * change within one word is always caught, and every input bit
 * reaches every output bit. It covers the kind byte, so flipping it
 * cannot turn one entry kind into the other. A truncated, corrupted, wrong-kind or
 * over-long entry is *rejected*: warned about, unlinked, and reported
 * as a miss so the caller recomputes -- never trusted and never a
 * fatal. Checkpoint blobs are additionally gated on
 * sample::Checkpoint::checksumOk before the fatal-on-corrupt
 * deserializer ever sees them.
 *
 * Writes go through a temp file unique to the writer (pid plus a
 * process-wide counter) and rename(2), so a concurrent reader sees
 * either the old entry or the complete new one, and any number of
 * writers racing on one key -- threads or processes -- each publish a
 * complete entry. Keys embed the farm and checkpoint format versions
 * plus the full spec and trace hash, so a stale or foreign entry
 * simply never collides.
 */

#ifndef CNSIM_FARM_CACHE_HH
#define CNSIM_FARM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/runner.hh"

namespace cnsim
{
namespace farm
{

/** The on-disk cache; a default-constructed or empty-dir instance is
 *  disabled and misses everything. */
class Cache
{
  public:
    Cache() = default;

    /** Open (creating directories as needed) the cache at @p dir;
     *  empty @p dir leaves the cache disabled. */
    explicit Cache(const std::string &dir);

    [[nodiscard]] bool enabled() const { return !root.empty(); }

    [[nodiscard]] const std::string &dir() const { return root; }

    /** Load the result under @p key into @p out. @return false on
     *  miss or on a rejected (corrupt) entry. */
    bool loadResult(std::uint64_t key, RunResult &out) const;

    /** Store @p result under @p key (atomic rename; no-op when
     *  disabled). */
    void storeResult(std::uint64_t key, const RunResult &result) const;

    /** Load the checkpoint blob under @p key; null on miss or on a
     *  rejected entry (entry or CNCKPT01 checksum failure). */
    [[nodiscard]] std::shared_ptr<const std::string>
    loadCkpt(std::uint64_t key) const;

    /** Store a warmed checkpoint blob under @p key. */
    void storeCkpt(std::uint64_t key, const std::string &blob) const;

    /** Entry path for @p kind ('r' or 'c') and @p key (for tests). */
    [[nodiscard]] std::string entryPath(char kind,
                                        std::uint64_t key) const;

  private:
    /** Read + validate the entry; false on miss, and a warn + unlink +
     *  miss on corruption. */
    bool loadEntry(char kind, std::uint64_t key,
                   std::string &payload) const;

    void storeEntry(char kind, std::uint64_t key,
                    const std::string &payload) const;

    std::string root;
};

} // namespace farm
} // namespace cnsim

#endif // CNSIM_FARM_CACHE_HH
