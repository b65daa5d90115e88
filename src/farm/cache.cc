#include "farm/cache.hh"

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "farm/cell.hh"
#include "sample/checkpoint.hh"

namespace cnsim
{
namespace farm
{

namespace
{

constexpr char entry_magic[8] = {'C', 'N', 'F', 'A', 'R', 'M', '0', '1'};

/** Bytes between the magic and the payload: u32 length + u8 kind. */
constexpr std::size_t entry_header_bytes = 5;

/** Bytes after the payload: the u64 checksum. */
constexpr std::size_t entry_trailer_bytes = 8;

/** Entries claiming a longer payload are rejected as corrupt (a bad
 *  length field must not trigger a multi-gigabyte allocation). */
constexpr std::uint64_t entry_max_payload = 256u * 1024 * 1024;

/** Numbers the temp files of this process's writers apart. */
std::atomic<std::uint64_t> tmp_serial{0};

/** Write @p v as @p bytes little-endian bytes. */
void
putLE(std::ostream &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
getLE(const char *p, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

/**
 * One checksum round: fold word @p w into @p h. The xor, the multiply
 * by an odd constant and the xor-shift are each a bijection of h, so a
 * change confined to one word always changes the checksum. The
 * multiply carries a bit only upward; the xor-shift brings the high
 * half back down for the next round to spread again, so bit 63 of a
 * word is not left alone in bit 63 where a second flip would cancel it.
 */
std::uint64_t
mixWord(std::uint64_t h, std::uint64_t w)
{
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
}

/** MurmurHash3's fmix64: every input bit reaches every output bit. */
std::uint64_t
avalanche(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
}

/** The entry checksum of cache.hh, eight payload bytes per round. */
std::uint64_t
entryChecksum(char kind, const char *payload, std::size_t n)
{
    std::uint64_t h = mixWord(0, static_cast<unsigned char>(kind));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, payload + i, sizeof(w));
        if constexpr (std::endian::native == std::endian::big)
            w = __builtin_bswap64(w);
        h = mixWord(h, w);
    }
    if (i < n)
        h = mixWord(h, getLE(payload + i, static_cast<int>(n - i)));
    return avalanche(mixWord(h, n));
}

/** Write the complete entry file for @p payload (see cache.hh)
 *  straight to @p out, without staging a copy of the payload. */
void
writeEntry(std::ostream &out, char kind, const std::string &payload)
{
    out.write(entry_magic, sizeof(entry_magic));
    putLE(out, payload.size(), 4);
    out.put(kind);
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    putLE(out, entryChecksum(kind, payload.data(), payload.size()), 8);
}

/** Validate entry file @p bytes as kind @p kind and extract its
 *  payload; @return null on success, else why it was rejected. */
const char *
decodeEntry(const std::string &bytes, char kind, std::string &payload)
{
    constexpr std::size_t fixed =
        sizeof(entry_magic) + entry_header_bytes + entry_trailer_bytes;
    if (bytes.size() < sizeof(entry_magic) ||
        std::memcmp(bytes.data(), entry_magic, sizeof(entry_magic)) != 0)
        return "bad magic";
    if (bytes.size() < fixed)
        return "truncated";
    const char *p = bytes.data() + sizeof(entry_magic);
    std::uint64_t len = getLE(p, 4);
    if (len > entry_max_payload)
        return "length out of range";
    if (bytes.size() < fixed + len)
        return "truncated";
    const char *body = p + entry_header_bytes;
    if (entryChecksum(p[4], body, len) != getLE(body + len, 8))
        return "checksum mismatch";
    if (bytes.size() != fixed + len)
        return "trailing bytes";
    if (p[4] != kind)
        return "wrong entry kind";
    payload.assign(body, len);
    return nullptr;
}

/** mkdir -p: create @p dir and its ancestors; false on failure. */
bool
makeDirs(const std::string &dir)
{
    std::string partial;
    std::istringstream ss(dir);
    std::string comp;
    if (!dir.empty() && dir[0] == '/')
        partial = "/";
    while (std::getline(ss, comp, '/')) {
        if (comp.empty())
            continue;
        if (!partial.empty() && partial.back() != '/')
            partial += '/';
        partial += comp;
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return in.good() || in.eof();
}

} // namespace

Cache::Cache(const std::string &dir) : root(dir)
{
    if (root.empty())
        return;
    if (!makeDirs(root)) {
        warn("cannot create cache directory '%s' (%s); caching disabled",
             root.c_str(), std::strerror(errno));
        root.clear();
    }
}

std::string
Cache::entryPath(char kind, std::uint64_t key) const
{
    return root + "/" + kind + "-" + keyString(key) + ".cnf";
}

bool
Cache::loadEntry(char kind, std::uint64_t key, std::string &payload) const
{
    if (!enabled())
        return false;
    std::string path = entryPath(kind, key);
    std::string bytes;
    if (!readFile(path, bytes))
        return false;

    if (const char *why = decodeEntry(bytes, kind, payload)) {
        warn("rejecting corrupt cache entry '%s' (%s); recomputing",
             path.c_str(), why);
        ::unlink(path.c_str());
        return false;
    }
    return true;
}

void
Cache::storeEntry(char kind, std::uint64_t key,
                  const std::string &payload) const
{
    if (!enabled())
        return;
    std::string path = entryPath(kind, key);
    std::string tmp = path + ".tmp." +
                      std::to_string(static_cast<long>(::getpid())) +
                      "." + std::to_string(tmp_serial.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("cannot write cache entry '%s'", tmp.c_str());
            return;
        }
        writeEntry(out, kind, payload);
        out.flush();
        if (!out.good()) {
            warn("short write on cache entry '%s'", tmp.c_str());
            ::unlink(tmp.c_str());
            return;
        }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot publish cache entry '%s' (%s)", path.c_str(),
             std::strerror(errno));
        ::unlink(tmp.c_str());
    }
}

bool
Cache::loadResult(std::uint64_t key, RunResult &out) const
{
    std::string payload;
    if (!loadEntry('r', key, payload))
        return false;
    out = deserializeResult(payload, entryPath('r', key));
    return true;
}

void
Cache::storeResult(std::uint64_t key, const RunResult &result) const
{
    storeEntry('r', key, serializeResult(result));
}

std::shared_ptr<const std::string>
Cache::loadCkpt(std::uint64_t key) const
{
    std::string payload;
    if (!loadEntry('c', key, payload))
        return nullptr;
    // Defense in depth: the entry checksum already validated the
    // bytes, but the checkpoint deserializer is fatal-on-corrupt, so
    // re-check its own integrity envelope before trusting the blob.
    if (!sample::Checkpoint::checksumOk(payload)) {
        std::string path = entryPath('c', key);
        warn("rejecting cache entry '%s': CNCKPT01 checksum failed; "
             "recomputing",
             path.c_str());
        ::unlink(path.c_str());
        return nullptr;
    }
    return std::make_shared<const std::string>(std::move(payload));
}

void
Cache::storeCkpt(std::uint64_t key, const std::string &blob) const
{
    storeEntry('c', key, blob);
}

} // namespace farm
} // namespace cnsim
