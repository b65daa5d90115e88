/**
 * @file
 * Checked parsing of numeric command-line values, shared by every
 * tool: a malformed value ends in a clean fatal() diagnostic, never a
 * silently misread number.
 */

#ifndef CNSIM_COMMON_CLI_HH
#define CNSIM_COMMON_CLI_HH

#include <cstdint>
#include <string>

namespace cnsim
{

/**
 * Parse @p v as the value of numeric flag @p flag. The whole string
 * must be decimal digits -- or, when @p hex_ok, "0x" plus hex digits --
 * with no sign, whitespace or suffix, naming a value in
 * [@p lo, @p hi]; anything else is a fatal() user error.
 */
std::uint64_t parseCount(const std::string &flag, const char *v,
                         std::uint64_t lo, std::uint64_t hi,
                         bool hex_ok = false);

} // namespace cnsim

#endif // CNSIM_COMMON_CLI_HH
