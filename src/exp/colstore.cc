#include "exp/colstore.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace ich
{
namespace exp
{

namespace
{

using state::ArchiveError;
using state::Buffer;

/** Buffered records before a batch-mode data chunk is flushed. */
constexpr std::size_t kChunkRecords = 4096;

// ---------------------------------------------------- wire primitives

using state::get32;
using state::get64;
using state::put32;
using state::put64;

void
putString(Buffer &out, const std::string &s)
{
    put32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

std::uint64_t
doubleBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

/** Bounds-checked little-endian cursor over a chunk body. */
class Cursor
{
  public:
    Cursor(const Buffer &buf, const std::string &path)
        : buf_(buf), path_(path)
    {
    }

    std::uint32_t u32() { return get32(bytes(4)); }

    std::uint64_t u64() { return get64(bytes(8)); }

    std::string str()
    {
        std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(buf_.data() + off_),
                      n);
        off_ += n;
        return s;
    }

    const std::uint8_t *bytes(std::size_t n)
    {
        need(n);
        const std::uint8_t *p = buf_.data() + off_;
        off_ += n;
        return p;
    }

    bool atEnd() const { return off_ == buf_.size(); }

    void expectEnd() const
    {
        if (!atEnd())
            throw ArchiveError("colstore: trailing bytes in a chunk of '" +
                               path_ + "'");
    }

  private:
    const Buffer &buf_;
    const std::string &path_;
    std::size_t off_ = 0;

    void need(std::size_t n) const
    {
        if (buf_.size() - off_ < n)
            throw ArchiveError("colstore: truncated chunk body in '" +
                               path_ + "'");
    }
};

// --------------------------------------------------- header chunk I/O

/** The header chunk: format version and the sweep's identity. */
Buffer
encodeHeader(const SweepMeta &meta)
{
    Buffer body;
    put32(body, kColFormatVersion);
    putString(body, meta.scenario);
    putString(body, meta.description);
    put64(body, meta.baseSeed);
    put32(body, static_cast<std::uint32_t>(meta.trialsPerPoint));
    put64(body, static_cast<std::uint64_t>(meta.points.size()));
    put64(body, meta.gridFp);
    return body;
}

Buffer
encodeFooter(std::uint64_t records, std::uint64_t points,
             std::uint32_t dict_size)
{
    Buffer body;
    put64(body, records);
    put64(body, points);
    put32(body, dict_size);
    return body;
}

/** Decoded data chunk: row columns + per-row (id, bits) metric lists. */
struct RawChunk {
    std::vector<std::uint64_t> pointIndex;
    std::vector<std::uint32_t> trial;
    std::vector<std::uint64_t> seed;
    /** Per row: (dictionary id, raw f64 bits), ascending id. */
    std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>>
        metrics;
    /** Dictionary delta carried by this chunk: (id, name). */
    std::vector<std::pair<std::uint32_t, std::string>> newNames;
};

RawChunk
decodeDataChunk(const Buffer &body, const std::string &path)
{
    Cursor cur(body, path);
    RawChunk out;

    std::uint32_t n_new = cur.u32();
    out.newNames.reserve(n_new);
    for (std::uint32_t i = 0; i < n_new; ++i) {
        std::uint32_t id = cur.u32();
        out.newNames.emplace_back(id, cur.str());
    }

    std::uint32_t n = cur.u32();
    out.pointIndex.reserve(n);
    out.trial.reserve(n);
    out.seed.reserve(n);
    out.metrics.resize(n);
    for (std::uint32_t i = 0; i < n; ++i)
        out.pointIndex.push_back(cur.u64());
    for (std::uint32_t i = 0; i < n; ++i)
        out.trial.push_back(cur.u32());
    for (std::uint32_t i = 0; i < n; ++i)
        out.seed.push_back(cur.u64());

    std::uint32_t n_cols = cur.u32();
    const std::size_t bitmap_bytes = (n + 7) / 8;
    for (std::uint32_t c = 0; c < n_cols; ++c) {
        std::uint32_t id = cur.u32();
        const std::uint8_t *bitmap = cur.bytes(bitmap_bytes);
        std::uint32_t n_vals = cur.u32();
        std::uint32_t seen = 0;
        for (std::uint32_t row = 0; row < n; ++row) {
            if (bitmap[row / 8] & (1u << (row % 8))) {
                if (seen >= n_vals)
                    throw ArchiveError(
                        "colstore: presence bitmap exceeds value count "
                        "in '" + path + "'");
                ++seen;
            }
        }
        if (seen != n_vals)
            throw ArchiveError(
                "colstore: presence bitmap disagrees with value count "
                "in '" + path + "'");
        // Columns arrive in ascending id order, so per-row lists stay
        // sorted without a second pass.
        std::vector<std::uint64_t> vals(n_vals);
        for (std::uint32_t v = 0; v < n_vals; ++v)
            vals[v] = cur.u64();
        for (std::uint32_t row = 0, v = 0; row < n; ++row)
            if (bitmap[row / 8] & (1u << (row % 8)))
                out.metrics[row].emplace_back(id, vals[v++]);
    }
    cur.expectEnd();
    return out;
}

} // namespace

// --------------------------------------------------- ColumnStoreWriter

ColumnStoreWriter::ColumnStoreWriter(std::string path, bool durable)
    : path_(std::move(path)), durable_(durable)
{
}

ColumnStoreWriter::~ColumnStoreWriter()
{
    // No footer on destruction: an interrupted sweep must leave a
    // footer-less (resumable) file. Flush what we have, best-effort.
    try {
        if (began_ && !ended_ && !pending_.empty() && file_.isOpen())
            flushChunk();
    } catch (...) {
    }
    file_.close();
}

void
ColumnStoreWriter::beginSweep(const SweepMeta &meta)
{
    if (began_)
        throw std::logic_error("ColumnStoreWriter: beginSweep twice");
    began_ = true;

    // Adopt an existing store for the same sweep: scan it (validating
    // frames), import its dictionary, and append after its last intact
    // frame. Anything else — missing, corrupt, or a different sweep —
    // starts fresh.
    bool adopted = false;
    try {
        ColumnStoreReader prior(path_);
        if (prior.matches(meta)) {
            adoptedPoints_ = prior.completedPoints();
            fileRecords_ = prior.totalRecords();
            filePoints_ = prior.completedPoints();
            namesInOrder_ = prior.names();
            nameIds_.clear();
            for (std::size_t i = 0; i < namesInOrder_.size(); ++i)
                nameIds_[namesInOrder_[i]] =
                    static_cast<std::uint32_t>(i);
            flushedNames_ = namesInOrder_.size();
            sawFooter_ = prior.cleanFooter();
            file_.openAppend(path_, prior.validBytes(), durable_);
            adopted = true;
        }
    } catch (const ArchiveError &) {
    }
    if (!adopted) {
        adoptedPoints_ = 0;
        fileRecords_ = 0;
        filePoints_ = 0;
        nameIds_.clear();
        namesInOrder_.clear();
        flushedNames_ = 0;
        sawFooter_ = false;
        file_.create(path_, durable_);
        file_.append(kColChunkHeader, encodeHeader(meta));
    }
}

void
ColumnStoreWriter::acceptPoint(std::size_t point_idx,
                               const TrialRecord *records,
                               std::size_t count)
{
    if (!began_ || ended_)
        throw std::logic_error(
            "ColumnStoreWriter: acceptPoint outside a sweep");
    for (std::size_t t = 0; t < count; ++t) {
        const TrialRecord &rec = records[t];
        Row row;
        row.pointIndex = static_cast<std::uint64_t>(point_idx);
        row.trial = static_cast<std::uint32_t>(rec.trial);
        row.seed = rec.seed;
        row.metrics.reserve(rec.metrics.size());
        for (const auto &kv : rec.metrics) {
            auto it = nameIds_.find(kv.first);
            if (it == nameIds_.end()) {
                std::uint32_t id =
                    static_cast<std::uint32_t>(namesInOrder_.size());
                it = nameIds_.emplace(kv.first, id).first;
                namesInOrder_.push_back(kv.first);
            }
            row.metrics.emplace_back(it->second, kv.second);
        }
        // MetricMap iterates name order; ids were assigned on first
        // sight, so sort to keep per-row lists in id order.
        std::sort(row.metrics.begin(), row.metrics.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        pending_.push_back(std::move(row));
    }
    fileRecords_ += count;
    ++filePoints_;
    // Whole points per chunk: flush when the batch is big enough, or
    // immediately in durable mode (fsync'd append == checkpoint).
    if (durable_ || pending_.size() >= kChunkRecords)
        flushChunk();
}

/**
 * Write the pending rows as one data chunk: the dictionary delta
 * (names assigned since the last flush), then the fixed-width row
 * columns, then one sparse column per metric id present.
 */
void
ColumnStoreWriter::flushChunk()
{
    if (pending_.empty())
        return;
    Buffer body;
    put32(body, static_cast<std::uint32_t>(namesInOrder_.size() -
                                           flushedNames_));
    for (std::size_t i = flushedNames_; i < namesInOrder_.size(); ++i) {
        put32(body, static_cast<std::uint32_t>(i));
        putString(body, namesInOrder_[i]);
    }

    const std::size_t n = pending_.size();
    put32(body, static_cast<std::uint32_t>(n));
    for (const Row &r : pending_)
        put64(body, r.pointIndex);
    for (const Row &r : pending_)
        put32(body, r.trial);
    for (const Row &r : pending_)
        put64(body, r.seed);

    // Which metric ids appear in this chunk, ascending.
    std::vector<std::uint32_t> ids;
    for (const Row &r : pending_)
        for (const auto &m : r.metrics)
            ids.push_back(m.first);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

    put32(body, static_cast<std::uint32_t>(ids.size()));
    const std::size_t bitmap_bytes = (n + 7) / 8;
    for (std::uint32_t id : ids) {
        put32(body, id);
        std::vector<std::uint8_t> bitmap(bitmap_bytes, 0);
        std::vector<std::uint64_t> vals;
        for (std::size_t row = 0; row < n; ++row) {
            for (const auto &m : pending_[row].metrics) {
                if (m.first == id) {
                    bitmap[row / 8] |=
                        static_cast<std::uint8_t>(1u << (row % 8));
                    vals.push_back(doubleBits(m.second));
                    break;
                }
            }
        }
        body.insert(body.end(), bitmap.begin(), bitmap.end());
        put32(body, static_cast<std::uint32_t>(vals.size()));
        for (std::uint64_t v : vals)
            put64(body, v);
    }
    pending_.clear();
    flushedNames_ = namesInOrder_.size();
    file_.append(kColChunkData, body);
    // A new data frame invalidates any adopted footer's totals; the
    // reader tolerates frames after a footer, and endSweep() writes a
    // fresh one.
    sawFooter_ = false;
}

void
ColumnStoreWriter::endSweep()
{
    if (!began_ || ended_)
        throw std::logic_error(
            "ColumnStoreWriter: endSweep outside a sweep");
    flushChunk();
    if (!sawFooter_)
        file_.append(kColChunkFooter,
                     encodeFooter(fileRecords_, filePoints_,
                                  static_cast<std::uint32_t>(
                                      namesInOrder_.size())));
    ended_ = true;
    file_.close();
}

// --------------------------------------------------- ColumnStoreReader

struct ColumnStoreReader::DecodedChunk {
    std::uint64_t offset = 0;
    RawChunk raw;
};

ColumnStoreReader::~ColumnStoreReader() = default;

ColumnStoreReader::ColumnStoreReader(const std::string &path) : path_(path)
{
    state::ChunkFileScanner scan(path);
    state::ChunkFrame frame;
    bool have_header = false;
    std::uint64_t footer_records = 0;
    std::uint64_t footer_points = 0;
    bool have_footer = false;

    // Per-point fingerprint of already-indexed points, used to verify
    // that duplicates (a point appended twice to an adopted store) carry
    // identical bits. FNV-1a over the canonical row encoding — cheap
    // relative to re-decoding both copies, and a collision would have
    // to also pass the per-frame CRC to slip through.
    std::map<std::size_t, std::uint64_t> point_fp;

    while (scan.next(frame)) {
        std::uint64_t frame_off = scan.lastFrameOffset();
        if (!have_header) {
            if (frame.kind != kColChunkHeader)
                throw ArchiveError(
                    "colstore: '" + path +
                    "' does not start with a header chunk");
            Cursor cur(frame.body, path_);
            std::uint32_t version = cur.u32();
            if (version != kColFormatVersion)
                throw ArchiveError(
                    "colstore: unsupported format version " +
                    std::to_string(version) + " in '" + path + "'");
            scenario_ = cur.str();
            description_ = cur.str();
            baseSeed_ = cur.u64();
            trialsPerPoint_ = static_cast<int>(cur.u32());
            numPoints_ = cur.u64();
            gridFp_ = cur.u64();
            cur.expectEnd();
            if (trialsPerPoint_ < 1)
                throw ArchiveError(
                    "colstore: invalid trials/point in '" + path + "'");
            have_header = true;
            continue;
        }
        if (frame.kind == kColChunkHeader)
            throw ArchiveError("colstore: duplicate header chunk in '" +
                               path + "'");
        if (frame.kind == kColChunkFooter) {
            Cursor cur(frame.body, path_);
            footer_records = cur.u64();
            footer_points = cur.u64();
            (void)cur.u32(); // dictionary size: advisory
            cur.expectEnd();
            have_footer = true;
            continue;
        }
        if (frame.kind != kColChunkData)
            throw ArchiveError("colstore: unknown chunk kind " +
                               std::to_string(frame.kind) + " in '" +
                               path + "'");
        have_footer = false; // data after a footer: totals are stale

        RawChunk raw = decodeDataChunk(frame.body, path_);
        for (const auto &nn : raw.newNames) {
            if (nn.first != names_.size())
                throw ArchiveError(
                    "colstore: non-contiguous dictionary ids in '" +
                    path + "'");
            names_.push_back(nn.second);
        }
        for (const auto &row : raw.metrics)
            for (const auto &m : row)
                if (m.first >= names_.size())
                    throw ArchiveError(
                        "colstore: metric id beyond the dictionary "
                        "in '" + path + "'");

        // Index whole points: rows for one point must be contiguous
        // with trials 0..T-1 in order.
        const std::size_t n = raw.pointIndex.size();
        const std::uint32_t tpp =
            static_cast<std::uint32_t>(trialsPerPoint_);
        if (n % tpp != 0)
            throw ArchiveError(
                "colstore: data chunk is not whole points in '" + path +
                "'");
        for (std::size_t base = 0; base < n; base += tpp) {
            std::uint64_t pidx = raw.pointIndex[base];
            if (numPoints_ > 0 && pidx >= numPoints_)
                throw ArchiveError(
                    "colstore: point index beyond the grid in '" +
                    path + "'");
            std::uint64_t fp = 1469598103934665603ull;
            auto mix = [&fp](std::uint64_t v) {
                for (int i = 0; i < 8; ++i) {
                    fp ^= (v >> (8 * i)) & 0xffu;
                    fp *= 1099511628211ull;
                }
            };
            for (std::uint32_t t = 0; t < tpp; ++t) {
                std::size_t r = base + t;
                if (raw.pointIndex[r] != pidx || raw.trial[r] != t)
                    throw ArchiveError(
                        "colstore: point rows out of trial order in '" +
                        path + "'");
                mix(raw.seed[r]);
                for (const auto &m : raw.metrics[r]) {
                    mix(m.first);
                    mix(m.second);
                }
            }
            auto prev = point_fp.find(static_cast<std::size_t>(pidx));
            if (prev != point_fp.end()) {
                if (prev->second != fp)
                    throw ArchiveError(
                        "colstore: conflicting duplicate of point " +
                        std::to_string(pidx) + " in '" + path + "'");
                continue; // identical duplicate: keep the first copy
            }
            point_fp[static_cast<std::size_t>(pidx)] = fp;
            PointLoc loc;
            loc.chunkOffset = frame_off;
            loc.rowStart = static_cast<std::uint32_t>(base);
            loc.rowCount = tpp;
            directory_[static_cast<std::size_t>(pidx)] = loc;
            totalRecords_ += tpp;
        }
    }
    torn_ = scan.tornTail();
    validBytes_ = scan.validBytes();
    if (!have_header)
        throw ArchiveError("colstore: '" + path +
                           "' has no header chunk");
    cleanFooter_ = have_footer && footer_records == totalRecords_ &&
                   footer_points == directory_.size();
}

bool
ColumnStoreReader::matches(const SweepMeta &meta) const
{
    // Description is presentation, not identity — a reworded scenario
    // must still resume.
    return scenario_ == meta.scenario && baseSeed_ == meta.baseSeed &&
           trialsPerPoint_ == meta.trialsPerPoint &&
           numPoints_ == static_cast<std::uint64_t>(meta.points.size()) &&
           gridFp_ == meta.gridFp;
}

const ColumnStoreReader::DecodedChunk &
ColumnStoreReader::chunkAt(std::uint64_t offset) const
{
    if (cache_ && cache_->offset == offset)
        return *cache_;
    state::ChunkFileScanner scan(path_);
    scan.seekTo(offset);
    state::ChunkFrame frame;
    if (!scan.next(frame) || frame.kind != kColChunkData)
        throw ArchiveError("colstore: data chunk vanished from '" +
                           path_ + "' (file changed underneath us?)");
    auto decoded = std::make_unique<DecodedChunk>();
    decoded->offset = offset;
    decoded->raw = decodeDataChunk(frame.body, path_);
    cache_ = std::move(decoded);
    return *cache_;
}

std::vector<TrialRecord>
ColumnStoreReader::pointAt(const PointLoc &loc) const
{
    const DecodedChunk &chunk = chunkAt(loc.chunkOffset);
    std::vector<TrialRecord> out;
    out.reserve(loc.rowCount);
    for (std::uint32_t i = 0; i < loc.rowCount; ++i) {
        std::size_t r = loc.rowStart + i;
        TrialRecord rec;
        rec.pointIndex =
            static_cast<std::size_t>(chunk.raw.pointIndex[r]);
        rec.trial = static_cast<int>(chunk.raw.trial[r]);
        rec.seed = chunk.raw.seed[r];
        for (const auto &m : chunk.raw.metrics[r])
            rec.metrics[names_[m.first]] = bitsDouble(m.second);
        out.push_back(std::move(rec));
    }
    return out;
}

void
ColumnStoreReader::forEachPoint(
    const std::function<void(std::size_t,
                             const std::vector<TrialRecord> &)> &fn) const
{
    for (const auto &kv : directory_)
        fn(kv.first, pointAt(kv.second));
}

std::vector<TrialRecord>
ColumnStoreReader::readPoint(std::size_t point_idx) const
{
    auto it = directory_.find(point_idx);
    if (it == directory_.end())
        throw std::out_of_range("colstore: point " +
                                std::to_string(point_idx) +
                                " is not in the store");
    return pointAt(it->second);
}

} // namespace exp
} // namespace ich
