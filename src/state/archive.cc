#include "state/archive.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "io/fileops.hh"

namespace ich
{
namespace state
{

namespace
{

/** Value type tags (one byte in front of every value). */
enum Tag : std::uint8_t {
    kTagBool = 1,
    kTagU8 = 2,
    kTagU32 = 3,
    kTagU64 = 4,
    kTagI32 = 5,
    kTagF64 = 6,
    kTagString = 7,
};

const char *
tagName(std::uint8_t tag)
{
    switch (tag) {
      case kTagBool: return "bool";
      case kTagU8: return "u8";
      case kTagU32: return "u32";
      case kTagU64: return "u64";
      case kTagI32: return "i32";
      case kTagF64: return "f64";
      case kTagString: return "string";
      default: return "unknown";
    }
}

constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;

/**
 * Slice-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320.
 * t[0] is the classic byte-at-a-time table; t[k][i] is the CRC of byte
 * i followed by k zero bytes, so eight table lookups advance the CRC
 * over eight input bytes at once.
 */
struct CrcTables {
    std::uint32_t t[8][256];
};

constexpr CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int b = 0; b < 8; ++b)
            c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
        tables.t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t prev = tables.t[k - 1][i];
            tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
        }
    return tables;
}

constexpr CrcTables kCrc = makeCrcTables();

/** Little-endian u32 from bytes: no type punning, no alignment needs. */
inline std::uint32_t
le32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    // Table-driven CRC-32 (reflected, poly 0xEDB88320), eight bytes per
    // step. It runs over every byte of every --stream and --resume
    // store twice, once on write and once on read-back, so a bitwise
    // loop would be a visible share of a store-heavy sweep. A seed of 0
    // starts a fresh CRC; passing a previous result continues it (~0
    // un-finalizes the prior call).
    const auto &t = kCrc.t;
    std::uint32_t crc = ~seed;
    for (; size >= 8; data += 8, size -= 8) {
        std::uint32_t lo = crc ^ le32(data);
        std::uint32_t hi = le32(data + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
    return ~crc;
}

void
atomicWriteFile(const std::string &path, const Buffer &data)
{
    const std::string tmp = path + ".tmp";
    int fd = io::open(tmp.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644,
                      "archive.write");
    if (fd < 0)
        throw ArchiveError("archive: cannot open '" + tmp +
                           "' for writing [site archive.write]: " +
                           std::strerror(errno));
    auto bail = [&](const std::string &what, int err) {
        if (fd >= 0)
            ::close(fd);
        std::remove(tmp.c_str());
        throw ArchiveError("archive: " + what + " [site archive.write]" +
                           (err ? std::string(": ") + std::strerror(err)
                                : std::string()));
    };
    std::size_t done = 0;
    while (done < data.size()) {
        ssize_t n = io::write(fd, data.data() + done, data.size() - done,
                              "archive.write", tmp.c_str());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            bail("write failed on '" + tmp + "' at byte " +
                     std::to_string(done) + " of " +
                     std::to_string(data.size()),
                 errno);
        }
        if (n == 0)
            // A zero-byte write for a nonzero count cannot make
            // progress; looping on it would spin forever.
            bail("write of " + std::to_string(data.size() - done) +
                     " bytes to '" + tmp + "' returned 0",
                 0);
        done += static_cast<std::size_t>(n);
    }
    // Data must be on disk before the rename publishes the file, or a
    // power cut can leave the *new* name pointing at garbage — atomic
    // replacement is only atomic if the bytes land first.
    if (io::fsync(fd, "archive.write", tmp.c_str()) != 0)
        bail("fsync failed on '" + tmp + "'", errno);
    if (::close(fd) != 0) {
        fd = -1;
        bail("close failed on '" + tmp + "'", errno);
    }
    fd = -1;
    if (io::rename(tmp.c_str(), path.c_str(), "archive.write") != 0) {
        int err = errno;
        std::remove(tmp.c_str());
        throw ArchiveError("archive: cannot rename '" + tmp + "' to '" +
                           path + "' [site archive.write]: " +
                           std::strerror(err));
    }
    // The rename itself lives in the directory: fsync it too, so the
    // new directory entry survives a crash. Failure here is not fatal —
    // the file contents are already durable and the old entry, if any,
    // was equally consistent.
    std::string dir(path);
    std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? std::string(".")
                                     : dir.substr(0, slash + 1);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

Buffer
readFile(const std::string &path)
{
    int fd = io::open(path.c_str(), O_RDONLY | O_CLOEXEC, 0,
                      "archive.read");
    if (fd < 0)
        throw ArchiveError("archive: cannot open '" + path +
                           "' [site archive.read]: " +
                           std::strerror(errno));
    Buffer data;
    std::uint8_t chunk[65536];
    for (;;) {
        ssize_t n = io::read(fd, chunk, sizeof chunk, "archive.read",
                             path.c_str());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            throw ArchiveError("archive: read failed on '" + path +
                               "' [site archive.read]: " +
                               std::strerror(err));
        }
        if (n == 0)
            break;
        data.insert(data.end(), chunk, chunk + n);
    }
    ::close(fd);
    return data;
}

// ------------------------------------------------------------- writer

void
ArchiveWriter::raw32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        payload_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ArchiveWriter::raw64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        payload_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ArchiveWriter::tagged(std::uint8_t tag)
{
    if (!inSection_)
        throw ArchiveError("ArchiveWriter: value outside a section");
    raw8(tag);
}

void
ArchiveWriter::beginSection(const std::string &name)
{
    if (inSection_)
        throw ArchiveError("ArchiveWriter: sections cannot nest");
    inSection_ = true;
    raw32(static_cast<std::uint32_t>(name.size()));
    payload_.insert(payload_.end(), name.begin(), name.end());
    bodyLenPos_ = payload_.size();
    raw32(0); // patched in endSection()
}

void
ArchiveWriter::endSection()
{
    if (!inSection_)
        throw ArchiveError("ArchiveWriter: endSection without begin");
    inSection_ = false;
    std::uint32_t body_len =
        static_cast<std::uint32_t>(payload_.size() - bodyLenPos_ - 4);
    for (int i = 0; i < 4; ++i)
        payload_[bodyLenPos_ + i] =
            static_cast<std::uint8_t>(body_len >> (8 * i));
}

void
ArchiveWriter::putBool(bool v)
{
    tagged(kTagBool);
    raw8(v ? 1 : 0);
}

void
ArchiveWriter::putU8(std::uint8_t v)
{
    tagged(kTagU8);
    raw8(v);
}

void
ArchiveWriter::putU32(std::uint32_t v)
{
    tagged(kTagU32);
    raw32(v);
}

void
ArchiveWriter::putU64(std::uint64_t v)
{
    tagged(kTagU64);
    raw64(v);
}

void
ArchiveWriter::putI32(std::int32_t v)
{
    tagged(kTagI32);
    raw32(static_cast<std::uint32_t>(v));
}

void
ArchiveWriter::putF64(double v)
{
    tagged(kTagF64);
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v, "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof bits);
    raw64(bits);
}

void
ArchiveWriter::putString(const std::string &v)
{
    tagged(kTagString);
    raw32(static_cast<std::uint32_t>(v.size()));
    payload_.insert(payload_.end(), v.begin(), v.end());
}

Buffer
ArchiveWriter::finish() const
{
    if (inSection_)
        throw ArchiveError("ArchiveWriter: finish with an open section");
    Buffer out;
    out.reserve(kHeaderSize + payload_.size());
    auto push32 = [&out](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    auto push64 = [&out](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    push32(kArchiveMagic);
    push32(kArchiveVersion);
    push64(payload_.size());
    push32(crc32(payload_.data(), payload_.size()));
    out.insert(out.end(), payload_.begin(), payload_.end());
    return out;
}

void
ArchiveWriter::writeFile(const std::string &path) const
{
    atomicWriteFile(path, finish());
}

// ------------------------------------------------------------- reader

SectionReader::SectionReader(std::string name, const std::uint8_t *begin,
                             const std::uint8_t *end)
    : name_(std::move(name)), p_(begin), end_(end)
{
}

void
SectionReader::need(std::size_t n, const char *what) const
{
    if (static_cast<std::size_t>(end_ - p_) < n)
        throw ArchiveError("section '" + name_ + "': truncated " + what);
}

void
SectionReader::expectTag(std::uint8_t tag, const char *what)
{
    need(1, "type tag");
    std::uint8_t got = *p_++;
    if (got != tag)
        throw ArchiveError("section '" + name_ + "': expected " + what +
                           ", found " + tagName(got));
}

std::uint32_t
SectionReader::raw32()
{
    need(4, "value");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
}

std::uint64_t
SectionReader::raw64()
{
    need(8, "value");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
}

bool
SectionReader::getBool()
{
    expectTag(kTagBool, "bool");
    need(1, "value");
    return *p_++ != 0;
}

std::uint8_t
SectionReader::getU8()
{
    expectTag(kTagU8, "u8");
    need(1, "value");
    return *p_++;
}

std::uint32_t
SectionReader::getU32()
{
    expectTag(kTagU32, "u32");
    return raw32();
}

std::uint64_t
SectionReader::getU64()
{
    expectTag(kTagU64, "u64");
    return raw64();
}

std::int32_t
SectionReader::getI32()
{
    expectTag(kTagI32, "i32");
    return static_cast<std::int32_t>(raw32());
}

double
SectionReader::getF64()
{
    expectTag(kTagF64, "f64");
    std::uint64_t bits = raw64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
SectionReader::getString()
{
    expectTag(kTagString, "string");
    std::uint32_t len = raw32();
    need(len, "string body");
    std::string s(reinterpret_cast<const char *>(p_), len);
    p_ += len;
    return s;
}

ArchiveReader::ArchiveReader(Buffer data) : data_(std::move(data))
{
    if (data_.size() < kHeaderSize)
        throw ArchiveError("archive truncated: " +
                           std::to_string(data_.size()) +
                           " bytes is smaller than the header");
    auto read32 = [this](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[at + i]) << (8 * i);
        return v;
    };
    auto read64 = [this](std::size_t at) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[at + i]) << (8 * i);
        return v;
    };
    if (read32(0) != kArchiveMagic)
        throw ArchiveError("not a state archive (bad magic)");
    std::uint32_t version = read32(4);
    if (version != kArchiveVersion)
        throw ArchiveError(
            "archive version mismatch: file has v" +
            std::to_string(version) + ", this build reads v" +
            std::to_string(kArchiveVersion));
    std::uint64_t payload_len = read64(8);
    if (payload_len != data_.size() - kHeaderSize)
        throw ArchiveError("archive truncated: header promises " +
                           std::to_string(payload_len) +
                           " payload bytes, file carries " +
                           std::to_string(data_.size() - kHeaderSize));
    std::uint32_t expect_crc = read32(16);
    std::uint32_t got_crc = crc32(data_.data() + kHeaderSize,
                                  static_cast<std::size_t>(payload_len));
    if (expect_crc != got_crc)
        throw ArchiveError("archive CRC mismatch (corrupt payload)");

    // Index the sections.
    std::size_t pos = kHeaderSize;
    const std::size_t end = data_.size();
    while (pos < end) {
        if (end - pos < 4)
            throw ArchiveError("corrupt section table (name length)");
        std::uint32_t name_len = read32(pos);
        pos += 4;
        if (end - pos < name_len)
            throw ArchiveError("corrupt section table (name)");
        std::string name(reinterpret_cast<const char *>(&data_[pos]),
                         name_len);
        pos += name_len;
        if (end - pos < 4)
            throw ArchiveError("corrupt section table (body length)");
        std::uint32_t body_len = read32(pos);
        pos += 4;
        if (end - pos < body_len)
            throw ArchiveError("corrupt section table (body)");
        if (!index_.emplace(name, std::make_pair(pos, body_len)).second)
            throw ArchiveError("duplicate section '" + name + "'");
        pos += body_len;
    }
}

ArchiveReader
ArchiveReader::fromFile(const std::string &path)
{
    return ArchiveReader(readFile(path));
}

bool
ArchiveReader::has(const std::string &name) const
{
    return index_.count(name) != 0;
}

SectionReader
ArchiveReader::open(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        throw ArchiveError("archive has no section '" + name + "'");
    const std::uint8_t *begin = data_.data() + it->second.first;
    return SectionReader(name, begin, begin + it->second.second);
}

std::vector<std::string>
ArchiveReader::sectionNames() const
{
    std::vector<std::string> names;
    names.reserve(index_.size());
    for (const auto &kv : index_)
        names.push_back(kv.first);
    return names;
}

} // namespace state
} // namespace ich
