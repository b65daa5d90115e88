/**
 * @file
 * CNFRM01: length-prefixed, checksummed binary frames.
 *
 * The farm's coordinator/worker pipes carry discrete typed messages
 * over a byte stream. This module is the one framing implementation
 * for them, in the CNBLG01
 * spirit: explicit little-endian layout, full bounds validation, and
 * an FNV-1a checksum so a torn or corrupted frame is *detected* (and
 * reported to the caller) rather than decoded into garbage. The same
 * frame bytes double as the on-disk format of farm cache entries,
 * where the checksum is what lets a corrupted entry be rejected and
 * recomputed instead of trusted.
 *
 * Wire layout (integers little-endian):
 *   u32 payload_len
 *   u8  type                    application-defined discriminator
 *   payload_len bytes           payload
 *   u64 checksum                FNV-1a over the type byte + payload
 *
 * The checksum deliberately covers the type byte so a frame cannot be
 * reinterpreted as a different message kind by flipping one byte.
 */

#ifndef CNSIM_OBS_FRAME_HH
#define CNSIM_OBS_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace cnsim
{
namespace obs
{

/** One decoded frame: the type discriminator and its payload bytes. */
struct Frame
{
    std::uint8_t type = 0;
    std::string payload;
};

/** Outcome of a frame decode or read. */
enum class FrameStatus
{
    /** A complete, checksum-valid frame was produced. */
    Ok,
    /** The buffer ends before the frame does; read more and retry. */
    Incomplete,
    /** Clean end-of-stream on a frame boundary (fd reads only). */
    Eof,
    /** Torn frame: checksum mismatch, oversized length, or a stream
     *  that ends mid-frame. The stream is unrecoverable. */
    Torn,
};

/** Frames larger than this are rejected as torn (a corrupt length
 *  prefix must not trigger a multi-gigabyte allocation). */
constexpr std::uint32_t frame_max_payload = 256u * 1024 * 1024;

/** FNV-1a 64-bit hash -- the project-wide checksum/key primitive. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t seed = 14695981039346656037ull);

/** Render one frame to bytes. */
std::string encodeFrame(std::uint8_t type, const std::string &payload);

/**
 * Decode one frame from the front of [data, data+size). On Ok, @p out
 * holds the frame and @p consumed the bytes it occupied; on
 * Incomplete, nothing is consumed and the caller should append more
 * bytes; on Torn, the buffer is corrupt and must be discarded.
 */
FrameStatus decodeFrame(const std::uint8_t *data, std::size_t size,
                        Frame &out, std::size_t &consumed);

/**
 * Write one frame to @p fd, looping over partial writes and EINTR.
 * @return false on any unrecoverable write error (e.g. closed pipe).
 */
bool writeFrame(int fd, std::uint8_t type, const std::string &payload);

/**
 * Blocking-read one frame from @p fd. Eof is returned only for a
 * stream that ends exactly on a frame boundary; an end-of-stream
 * inside a frame is Torn (the writer died mid-message).
 */
FrameStatus readFrame(int fd, Frame &out);

} // namespace obs
} // namespace cnsim

#endif // CNSIM_OBS_FRAME_HH
