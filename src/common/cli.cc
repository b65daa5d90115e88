#include "common/cli.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace cnsim
{

std::uint64_t
parseCount(const std::string &flag, const char *v, std::uint64_t lo,
           std::uint64_t hi, bool hex_ok)
{
    const bool hex = hex_ok && v[0] == '0' && (v[1] == 'x' || v[1] == 'X');
    const char *digits = hex ? v + 2 : v;
    const char *charset = hex ? "0123456789abcdefABCDEF" : "0123456789";
    const std::size_t len = std::strlen(digits);
    if (len == 0 || std::strspn(digits, charset) != len)
        fatal("%s needs a non-negative %sinteger, got '%s'", flag.c_str(),
              hex_ok ? "decimal or 0x-hex " : "", v);
    errno = 0;
    unsigned long long n = std::strtoull(digits, nullptr, hex ? 16 : 10);
    if (errno == ERANGE || n < lo || n > hi)
        fatal("%s must be in %llu..%llu, got '%s'", flag.c_str(),
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi), v);
    return n;
}

} // namespace cnsim
