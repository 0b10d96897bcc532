/**
 * @file
 * CRC-framed append-only chunk files: the one durable on-disk format,
 * the framing layer under the columnar result store (exp/colstore).
 *
 * A chunk file is a flat sequence of frames:
 *
 *   frame   u32 magic "ICKF" | u32 kind | u32 bodyLen | body | u32 crc32
 *
 * All integers are little-endian with explicit widths, and the CRC
 * (state::crc32, IEEE 802.3 polynomial) covers the *whole frame* —
 * magic, kind, bodyLen, and body. Covering the header matters:
 * a flipped bit in bodyLen would otherwise masquerade as a torn tail
 * (swallowing every frame after it), and a flipped bit in kind would
 * reinterpret the body under another chunk type — both silent-data-loss
 * modes found by the crash-point torture campaign
 * (bench/torture_crashpoints). `kind` is producer-defined (header/data/
 * footer chunk types).
 *
 * Durability discipline:
 *
 *  - A writer appends whole frames; in durable mode every append is
 *    fsync'd (and the directory entry is fsync'd once at creation), so
 *    a completed append survives kill -9.
 *  - A kill mid-append leaves a *torn tail*: an incomplete final frame.
 *    The scanner detects it (not enough bytes for the announced frame),
 *    reports it via tornTail(), and stops cleanly — every frame before
 *    the tear is intact by construction.
 *  - A torn tail is only ever the *last* thing in a file: appends are
 *    sequential, so nothing can land after an unfinished frame. If an
 *    intact frame parses after an apparent tear, the "tear" is really a
 *    corrupted length field, and the scanner raises ArchiveError
 *    instead of silently dropping the good frames behind it.
 *  - A *complete* frame with a bad magic or CRC is corruption, not a
 *    tear, and raises ArchiveError: bytes after it can't be trusted.
 *  - Reopening for append truncates the torn tail first, so the file
 *    returns to a frame boundary before new frames land.
 */

#ifndef ICH_STATE_CHUNKIO_HH
#define ICH_STATE_CHUNKIO_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ich
{
namespace state
{

/** Any structural problem with a chunk file: I/O, truncation, CRC. */
class ArchiveError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Raw bytes of one frame body (or a whole in-memory frame). */
using Buffer = std::vector<std::uint8_t>;

/**
 * The binary codec's little-endian integers, shared by the frame
 * headers and the column-store chunk bodies. Byte-wise, so no type
 * punning and no alignment needs.
 */
inline void
put32(Buffer &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void
put64(Buffer &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline std::uint32_t
get32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t
get64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(get32(p)) |
           (static_cast<std::uint64_t>(get32(p + 4)) << 32);
}

/**
 * CRC-32 (IEEE 802.3 polynomial) of @p data. @p seed chains calls over
 * discontiguous buffers: crc32(b, nb, crc32(a, na)) == crc32(a || b).
 */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size,
                    std::uint32_t seed = 0);

/** "ICKF" — guards every frame boundary. */
constexpr std::uint32_t kChunkFrameMagic = 0x464B4349u;

/** One decoded frame. */
struct ChunkFrame {
    std::uint32_t kind = 0;
    Buffer body;
};

/**
 * Appends frames to a chunk file. Not thread-safe; callers serialize.
 */
class ChunkFileWriter
{
  public:
    ChunkFileWriter() = default;
    ~ChunkFileWriter();
    ChunkFileWriter(const ChunkFileWriter &) = delete;
    ChunkFileWriter &operator=(const ChunkFileWriter &) = delete;

    /**
     * Create (or truncate) @p path, creating parent directories. When
     * @p durable, every append() is fsync'd and the directory entry is
     * fsync'd now, so appended frames survive kill -9.
     */
    void create(const std::string &path, bool durable);

    /**
     * Open an existing file for append, truncating it to
     * @p valid_bytes first (dropping a torn tail so appends resume on
     * a frame boundary). @p valid_bytes comes from a prior scan
     * (ChunkFileScanner::validBytes()).
     */
    void openAppend(const std::string &path, std::uint64_t valid_bytes,
                    bool durable);

    /** Append one frame (and fsync it in durable mode). */
    void append(std::uint32_t kind, const Buffer &body);

    void close();
    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

  private:
    int fd_ = -1;
    bool durable_ = false;
    std::string path_;

    void writeAll(const Buffer &bytes);
};

/**
 * Sequential frame reader with torn-tail detection.
 */
class ChunkFileScanner
{
  public:
    /** Throws ArchiveError when the file cannot be opened. */
    explicit ChunkFileScanner(const std::string &path);
    ~ChunkFileScanner();
    ChunkFileScanner(const ChunkFileScanner &) = delete;
    ChunkFileScanner &operator=(const ChunkFileScanner &) = delete;

    /**
     * Read the next frame. Returns false at a clean EOF *or* at a torn
     * tail (tornTail() distinguishes). Throws ArchiveError on a
     * complete frame whose magic or CRC is wrong (corruption).
     */
    bool next(ChunkFrame &frame);

    /** True when the file ends in an incomplete frame. */
    bool tornTail() const { return torn_; }

    /** Offset just past the last successfully decoded frame. */
    std::uint64_t validBytes() const { return valid_; }

    /** Offset of the frame returned by the most recent next(). */
    std::uint64_t lastFrameOffset() const { return lastOff_; }

    std::uint64_t fileSize() const { return size_; }

    /** Reposition to a frame offset previously observed. */
    void seekTo(std::uint64_t offset);

  private:
    int fd_ = -1;
    std::string path_;
    std::uint64_t off_ = 0;
    std::uint64_t size_ = 0;
    std::uint64_t valid_ = 0;
    std::uint64_t lastOff_ = 0;
    bool torn_ = false;
};

} // namespace state
} // namespace ich

#endif // ICH_STATE_CHUNKIO_HH
