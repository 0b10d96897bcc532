#include "state/chunkio.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/fileops.hh"

namespace ich
{
namespace state
{

namespace
{

constexpr std::size_t kFrameHeaderSize = 4 + 4 + 4; // magic | kind | len
constexpr std::size_t kFrameTrailerSize = 4;        // crc32(header|body)

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

/**
 * pread exactly @p count bytes at @p off, retrying EINTR and partial
 * reads. The caller guarantees (via the scanned file size) that the
 * bytes exist, so EOF mid-read is an I/O error, not a torn tail.
 */
void
preadExact(int fd, void *buf, std::size_t count, std::uint64_t off,
           const std::string &path)
{
    std::uint8_t *p = static_cast<std::uint8_t *>(buf);
    std::size_t done = 0;
    while (done < count) {
        ssize_t n = io::pread(fd, p + done, count - done,
                              static_cast<off_t>(off + done),
                              "chunk.read", path.c_str());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ArchiveError("chunkio: read failed on '" + path +
                               "' at offset " +
                               std::to_string(off + done) +
                               " [site chunk.read]: " +
                               std::strerror(errno));
        }
        if (n == 0)
            throw ArchiveError("chunkio: unexpected EOF on '" + path +
                               "' at offset " +
                               std::to_string(off + done) +
                               " [site chunk.read]");
        done += static_cast<std::size_t>(n);
    }
}

/**
 * A torn tail can only be the last thing in a file — appends are
 * sequential, so nothing ever lands after an unfinished frame. When an
 * apparent tear is followed by an intact frame, the "tear" is really a
 * corrupted length field about to swallow good data, and silently
 * dropping those frames would be a wrong answer. Scans the tail once
 * (recovery path only); the full-frame CRC makes a false positive a
 * ~2^-32 accident per candidate offset.
 */
void
requireTearIsTail(int fd, const std::string &path,
                  std::uint64_t tear_off, std::uint64_t size)
{
    constexpr std::size_t kMinFrame =
        kFrameHeaderSize + kFrameTrailerSize;
    std::uint64_t tail_len = size - tear_off;
    // The torn frame's header occupies the first bytes of the tail, so
    // a buried intact frame needs at least one more header's worth.
    if (tail_len < kFrameHeaderSize + kMinFrame)
        return;
    Buffer tail(static_cast<std::size_t>(tail_len));
    preadExact(fd, tail.data(), tail.size(), tear_off, path);
    for (std::size_t i = 1; i + kMinFrame <= tail.size(); ++i) {
        if (get32(tail.data() + i) != kChunkFrameMagic)
            continue;
        std::uint32_t len = get32(tail.data() + i + 8);
        if (len > tail.size() - i - kMinFrame)
            continue;
        const std::uint8_t *f = tail.data() + i;
        if (get32(f + kFrameHeaderSize + len) ==
            crc32(f, kFrameHeaderSize + len))
            throw ArchiveError(
                "chunkio: intact frame found after an incomplete frame "
                "in '" + path + "' at offset " +
                std::to_string(tear_off) +
                " (corrupted frame length, not a torn tail)");
    }
}

void
fsyncParentDir(const std::string &path)
{
    // The new directory entry must survive a crash too; failure is
    // non-fatal (the contents are durable).
    std::size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : path.substr(0, slash + 1);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

/** Serialize one frame onto @p out. */
void
appendChunkFrame(Buffer &out, std::uint32_t kind, const Buffer &body)
{
    const std::size_t start = out.size();
    put32(out, kChunkFrameMagic);
    put32(out, kind);
    put32(out, static_cast<std::uint32_t>(body.size()));
    out.insert(out.end(), body.begin(), body.end());
    // The CRC covers the whole frame, header included (see chunkio.hh):
    // a bodyLen or kind bit-flip must fail the checksum, not redefine
    // how the rest of the file parses.
    put32(out, crc32(out.data() + start, out.size() - start));
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
        std::uint32_t lo = crc ^ get32(data);
        std::uint32_t hi = get32(data + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
    return ~crc;
}

// ------------------------------------------------------------- writer

ChunkFileWriter::~ChunkFileWriter()
{
    close();
}

void
ChunkFileWriter::create(const std::string &path, bool durable)
{
    close();
    std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
        if (ec)
            throw ArchiveError("chunkio: cannot create '" +
                               p.parent_path().string() +
                               "': " + ec.message());
    }
    fd_ = io::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644, "chunk.write");
    if (fd_ < 0)
        throw ArchiveError("chunkio: cannot create '" + path +
                           "' [site chunk.write]: " +
                           std::strerror(errno));
    path_ = path;
    durable_ = durable;
    if (durable_)
        fsyncParentDir(path_);
}

void
ChunkFileWriter::openAppend(const std::string &path,
                            std::uint64_t valid_bytes, bool durable)
{
    close();
    fd_ = io::open(path.c_str(), O_WRONLY | O_CLOEXEC, 0, "chunk.write");
    if (fd_ < 0)
        throw ArchiveError("chunkio: cannot open '" + path +
                           "' for append [site chunk.write]: " +
                           std::strerror(errno));
    // Drop a torn tail so appends resume on a frame boundary.
    if (io::ftruncate(fd_, static_cast<off_t>(valid_bytes),
                      "chunk.write", path.c_str()) != 0) {
        int err = errno;
        ::close(fd_);
        fd_ = -1;
        throw ArchiveError("chunkio: cannot truncate '" + path +
                           "' [site chunk.write]: " +
                           std::strerror(err));
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
        int err = errno;
        ::close(fd_);
        fd_ = -1;
        throw ArchiveError("chunkio: cannot seek '" + path +
                           "': " + std::strerror(err));
    }
    path_ = path;
    durable_ = durable;
}

void
ChunkFileWriter::writeAll(const Buffer &bytes)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = io::write(fd_, bytes.data() + done,
                              bytes.size() - done, "chunk.write",
                              path_.c_str());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ArchiveError(
                "chunkio: write failed on '" + path_ +
                "' at byte " + std::to_string(done) + " of " +
                std::to_string(bytes.size()) +
                " [site chunk.write]: " + std::strerror(errno));
        }
        if (n == 0)
            // write() returning 0 for a nonzero count never makes
            // progress; retrying would spin forever.
            throw ArchiveError("chunkio: write of " +
                               std::to_string(bytes.size() - done) +
                               " bytes to '" + path_ +
                               "' returned 0 [site chunk.write]");
        done += static_cast<std::size_t>(n);
    }
}

void
ChunkFileWriter::append(std::uint32_t kind, const Buffer &body)
{
    if (fd_ < 0)
        throw ArchiveError("chunkio: append on a closed writer");
    Buffer frame;
    frame.reserve(kFrameHeaderSize + body.size() + kFrameTrailerSize);
    appendChunkFrame(frame, kind, body);
    writeAll(frame);
    if (durable_ &&
        io::fsync(fd_, "chunk.write", path_.c_str()) != 0)
        throw ArchiveError("chunkio: fsync failed on '" + path_ +
                           "' [site chunk.write]: " +
                           std::strerror(errno));
}

void
ChunkFileWriter::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

// ------------------------------------------------------------ scanner

ChunkFileScanner::ChunkFileScanner(const std::string &path) : path_(path)
{
    fd_ = io::open(path.c_str(), O_RDONLY | O_CLOEXEC, 0, "chunk.read");
    if (fd_ < 0)
        throw ArchiveError("chunkio: cannot open '" + path +
                           "' [site chunk.read]: " +
                           std::strerror(errno));
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
        int err = errno;
        ::close(fd_);
        fd_ = -1;
        throw ArchiveError("chunkio: cannot stat '" + path +
                           "': " + std::strerror(err));
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
}

ChunkFileScanner::~ChunkFileScanner()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
ChunkFileScanner::seekTo(std::uint64_t offset)
{
    off_ = offset;
    torn_ = false;
}

bool
ChunkFileScanner::next(ChunkFrame &frame)
{
    if (off_ >= size_)
        return false;
    std::uint64_t avail = size_ - off_;
    if (avail < kFrameHeaderSize + kFrameTrailerSize) {
        torn_ = true;
        return false;
    }
    std::uint8_t hdr[kFrameHeaderSize];
    preadExact(fd_, hdr, sizeof hdr, off_, path_);
    if (get32(hdr) != kChunkFrameMagic)
        throw ArchiveError("chunkio: bad frame magic in '" + path_ +
                           "' at offset " + std::to_string(off_));
    std::uint32_t kind = get32(hdr + 4);
    std::uint32_t body_len = get32(hdr + 8);
    if (avail - kFrameHeaderSize < body_len + kFrameTrailerSize) {
        // The frame header landed but the body/CRC didn't: a torn
        // append — unless intact frames follow, in which case this is
        // a corrupt length field and requireTearIsTail() throws.
        requireTearIsTail(fd_, path_, off_, size_);
        torn_ = true;
        return false;
    }
    Buffer body(body_len);
    if (body_len > 0)
        preadExact(fd_, body.data(), body_len, off_ + kFrameHeaderSize,
                   path_);
    std::uint8_t crc_bytes[kFrameTrailerSize];
    preadExact(fd_, crc_bytes, sizeof crc_bytes,
               off_ + kFrameHeaderSize + body_len, path_);
    if (get32(crc_bytes) !=
        crc32(body.data(), body.size(), crc32(hdr, sizeof hdr)))
        throw ArchiveError("chunkio: CRC mismatch in '" + path_ +
                           "' at offset " + std::to_string(off_) +
                           " (corrupt chunk)");
    lastOff_ = off_;
    off_ += kFrameHeaderSize + body_len + kFrameTrailerSize;
    valid_ = std::max(valid_, off_);
    frame.kind = kind;
    frame.body = std::move(body);
    return true;
}

} // namespace state
} // namespace ich
