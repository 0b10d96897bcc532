#include "exp/resume.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "exp/colstore.hh"
#include "state/archive.hh"

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

bool
ResumeManifest::matches(const ResumeManifest &other) const
{
    return scenario == other.scenario && baseSeed == other.baseSeed &&
           trialsPerPoint == other.trialsPerPoint &&
           numPoints == other.numPoints && gridFp == other.gridFp;
}

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

std::string
warmSnapshotPath(const std::string &dir, const std::string &scenario,
                 const std::string &key)
{
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, fnv1a(key));
    return (std::filesystem::path(dir) /
            (scenario + ".warm-" + hash + ".snap"))
        .string();
}

bool
loadManifest(const std::string &path, ResumeManifest &out)
{
    try {
        ColumnStoreReader reader(path);
        if (reader.trialsPerPoint() < 1)
            return false;
        ResumeManifest m;
        m.scenario = reader.scenario();
        m.baseSeed = reader.baseSeed();
        m.trialsPerPoint = reader.trialsPerPoint();
        m.numPoints = reader.numPoints();
        m.gridFp = reader.gridFp();
        reader.forEachPoint(
            [&m](std::size_t idx,
                 const std::vector<TrialRecord> &records) {
                if (idx >= m.numPoints ||
                    records.size() !=
                        static_cast<std::size_t>(m.trialsPerPoint))
                    throw state::ArchiveError(
                        "colstore: point shape disagrees with the "
                        "header");
                m.points[idx] = records;
            });
        out = std::move(m);
        return true;
    } catch (const state::ArchiveError &) {
        // Missing, corrupt, or not a column store: treat as absent.
        return false;
    }
}

void
writeManifest(const std::string &path, const ResumeManifest &m)
{
    StoreHeader hdr;
    hdr.scenario = m.scenario;
    hdr.description = ""; // presentation only; matches() ignores it
    hdr.baseSeed = m.baseSeed;
    hdr.trialsPerPoint = m.trialsPerPoint;
    hdr.numPoints = m.numPoints;
    hdr.gridFp = m.gridFp;
    state::atomicWriteFile(path, encodeColumnStore(hdr, m.points));
}

} // namespace exp
} // namespace ich
