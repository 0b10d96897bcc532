#include "exp/resume.hh"

#include <cstring>
#include <filesystem>

namespace ich
{
namespace exp
{

namespace
{

std::uint64_t
fnv1a(unsigned char c, std::uint64_t h)
{
    return (h ^ c) * 1099511628211ull;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : s)
        h = fnv1a(c, h);
    return h;
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

} // namespace

std::uint64_t
gridFingerprint(const std::vector<ParamPoint> &points)
{
    // Hashes, per point: its entries as "name=label" joined by single
    // spaces (the bytes of p.toString()), then each entry's label and
    // the 16 lowercase hex digits of its value's bits, then "|". The
    // bytes are fed one at a time, with no string built. The stream
    // must never change: stores on disk carry the result, and a
    // different hash would orphan them.
    static constexpr char kHex[] = "0123456789abcdef";
    std::uint64_t h = fnv1a("grid-v1");
    for (const ParamPoint &p : points) {
        bool first = true;
        for (const auto &e : p.entries()) {
            if (!first)
                h = fnv1a(' ', h);
            first = false;
            h = fnv1a(e.name.str(), h);
            h = fnv1a('=', h);
            h = fnv1a(e.value.label.str(), h);
        }
        for (const auto &e : p.entries()) {
            h = fnv1a(e.value.label.str(), h);
            const std::uint64_t bits = doubleBits(e.value.value);
            for (int shift = 60; shift >= 0; shift -= 4)
                h = fnv1a(kHex[(bits >> shift) & 0xFu], h);
        }
        h = fnv1a('|', h);
    }
    return h;
}

std::string
resultStorePath(const std::string &dir, const std::string &scenario)
{
    return (std::filesystem::path(dir) / (scenario + ".colstore"))
        .string();
}

} // namespace exp
} // namespace ich
